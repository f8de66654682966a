#include "workloads.h"

#include <sys/resource.h>

#include <atomic>
#include <unordered_map>
#include <utility>

#include "slb/common/rng.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/workload/cost_model.h"
#include "slb/workload/zipf.h"

namespace slb::perfbench {
namespace {

// Why each workload exists:
//  * skew-work: the paper's regime (Figs. 13/14). z = 2.0 puts ~61% of the
//    stream on one key and every tuple costs ~10 us of bolt work, so the
//    busiest worker's share of the skew sets throughput and routing plus
//    framework are a few percent of the per-tuple budget.
//  * route-light: near-free CountingBolt sinks behind a 64-way D-C edge, so
//    the spout emit path (Route, batching, ring publish) does most of the
//    work and a routing change shows up end to end.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"skew-work", 2.0, 10'000, 2, AlgorithmKind::kDChoices, 8, 5'000,
       150'000},
      {"route-light", 1.4, 100'000, 2, AlgorithmKind::kDChoices, 64, 0,
       1'000'000},
  };
  return kWorkloads;
}

struct TrialShared {
  std::atomic<bool> started{false};
  int64_t first_call_ns = 0;  // written once before the threads are joined
};

class BenchSpout final : public Spout {
 public:
  BenchSpout(const std::vector<uint64_t>* keys, uint64_t offset,
             uint64_t stride, TrialShared* shared)
      : keys_(keys), pos_(offset), stride_(stride), shared_(shared) {}

  bool NextTuple(TopologyTuple* out) override {
    if (!started_) {
      // The only clock read of an untraced spout: one per trial, by the
      // first spout task to run, to end the set-up interval.
      started_ = true;
      if (!shared_->started.exchange(true, std::memory_order_relaxed)) {
        shared_->first_call_ns = NowNs();
      }
    }
    if (pos_ >= keys_->size()) return false;
    out->key = (*keys_)[pos_];
    out->value = pos_;  // root id
    pos_ += stride_;
    return true;
  }

 private:
  const std::vector<uint64_t>* keys_;
  uint64_t pos_;
  uint64_t stride_;
  TrialShared* shared_;
  bool started_ = false;
};

// Fixed per-tuple CPU work: cost_model->CostOf(key) units of a dependent
// integer-mix chain, plus one per-key counter of operator state.
class WorkBolt final : public Bolt {
 public:
  WorkBolt(std::shared_ptr<const CostModel> cost, uint32_t iterations_per_unit,
           TaskTally* tally)
      : cost_(std::move(cost)),
        iterations_per_unit_(iterations_per_unit),
        tally_(tally) {}

  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    const auto iterations = static_cast<uint32_t>(
        cost_->CostOf(tuple.key) * static_cast<double>(iterations_per_unit_));
    uint64_t x = tuple.key ^ mix_;
    for (uint32_t i = 0; i < iterations; ++i) {
      x = (x ^ (x >> 31)) * 0x9e3779b97f4a7c15ULL;
    }
    mix_ = x;
    ++counts_[tuple.key];
    ++tally_->executed;
    tally_->digest += Mix64(tuple.key);
  }
  size_t StateEntries() const override { return counts_.size(); }

 private:
  std::shared_ptr<const CostModel> cost_;
  uint32_t iterations_per_unit_;
  TaskTally* tally_;
  uint64_t mix_ = 0;
  std::unordered_map<uint64_t, uint64_t> counts_;
};

std::unique_ptr<Bolt> MakeCountingBolt(TaskTally* tally) {
  return std::make_unique<CountingBolt>([tally](uint64_t key, uint64_t) {
    ++tally->executed;
    tally->digest += Mix64(key);
  });
}

class TracedSpout final : public Spout {
 public:
  TracedSpout(std::unique_ptr<Spout> inner, SpoutTrace* trace,
              std::vector<int64_t>* emit_ns)
      : inner_(std::move(inner)), trace_(trace), emit_ns_(emit_ns) {}

  bool NextTuple(TopologyTuple* out) override {
    const int64_t now = NowNs();
    SpoutTrace& tr = *trace_;
    if (tr.last_call_ns >= 0) {
      const int64_t gap = now - tr.last_call_ns;
      if (gap < kLongGapNs) {
        ++tr.short_gaps[static_cast<size_t>(gap / kGapBinNs)];
        tr.short_gap_ns += gap;
      } else {
        tr.long_gap_ns += gap;
      }
      if (tr.span_open) {
        tr.spans.back().dur_ns = gap;
        tr.span_open = false;
      }
    } else {
      tr.first_call_ns = now;
    }
    tr.last_call_ns = now;
    if (!inner_->NextTuple(out)) return false;
    if (out->value % kSampleEvery == 0) {
      (*emit_ns_)[out->value / kSampleEvery] = now;
      tr.spans.push_back(
          Span{"spout.emit", now, 0, out->value, CurrentThreadIndex()});
      tr.span_open = true;
    }
    return true;
  }

 private:
  std::unique_ptr<Spout> inner_;
  SpoutTrace* trace_;
  std::vector<int64_t>* emit_ns_;
};

class TracedBolt final : public Bolt {
 public:
  TracedBolt(std::unique_ptr<Bolt> inner, BoltTrace* trace,
             const std::vector<int64_t>* emit_ns)
      : inner_(std::move(inner)), trace_(trace), emit_ns_(emit_ns) {}

  void Prepare(uint32_t task_index, uint32_t parallelism) override {
    inner_->Prepare(task_index, parallelism);
  }

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    const int64_t start = NowNs();
    const bool sampled = tuple.value % kSampleEvery == 0;
    if (sampled) {
      const int64_t delay = start - (*emit_ns_)[tuple.value / kSampleEvery];
      trace_->transport_ns.push_back(static_cast<uint32_t>(delay));
    }
    inner_->Execute(tuple, out);
    const int64_t end = NowNs();
    trace_->busy_ns += end - start;
    trace_->thread = CurrentThreadIndex();
    if (sampled) {
      trace_->spans.push_back(
          Span{"bolt.execute", start, end - start, tuple.value, trace_->thread});
    }
  }

  size_t StateEntries() const override { return inner_->StateEntries(); }

 private:
  std::unique_ptr<Bolt> inner_;
  BoltTrace* trace_;
  const std::vector<int64_t>* emit_ns_;
};

// Builds the workload's topology. `trial` null gives the shape only (for
// PlanTopology in the replay); its factories are never called.
TopologyBuilder::Topology BuildTopology(const WorkloadSpec& spec,
                                        AlgorithmKind grouping,
                                        const std::vector<uint64_t>* keys,
                                        TrialResult* trial,
                                        TrialShared* shared,
                                        TrialTrace* trace) {
  std::shared_ptr<const CostModel> cost;
  if (spec.work_iterations > 0) cost = MakeCostModel("unit").value();
  TopologyBuilder builder;
  builder.AddSpout(
      "spout",
      [&spec, keys, shared, trace](uint32_t task) -> std::unique_ptr<Spout> {
        auto spout =
            std::make_unique<BenchSpout>(keys, task, spec.spouts, shared);
        if (trace == nullptr) return spout;
        return std::make_unique<TracedSpout>(
            std::move(spout), &trace->spouts[task], &trace->emit_ns);
      },
      spec.spouts);
  Grouping first;
  first.algorithm = grouping;
  builder
      .AddBolt("bolt",
               [&spec, cost, trial, trace](uint32_t task) {
                 TaskTally* tally = &trial->bolt_tallies[task];
                 std::unique_ptr<Bolt> bolt;
                 if (spec.work_iterations > 0) {
                   bolt = std::make_unique<WorkBolt>(
                       cost, spec.work_iterations, tally);
                 } else {
                   bolt = MakeCountingBolt(tally);
                 }
                 if (trace == nullptr) return bolt;
                 return std::unique_ptr<Bolt>(std::make_unique<TracedBolt>(
                     std::move(bolt), &trace->bolts[task], &trace->emit_ns));
               },
               spec.bolts)
      .Input("spout", first);
  return builder.Build();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

const ComponentStats* FindComponent(const TopologyStats& stats,
                                    const std::string& name) {
  for (const ComponentStats& cs : stats.components) {
    if (cs.name == name) return &cs;
  }
  return nullptr;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void GenerateKeys(const WorkloadSpec& spec, uint64_t seed,
                  std::vector<uint64_t>* keys) {
  ZipfDistribution zipf(spec.zipf_z, spec.num_keys);
  Rng rng(seed);
  keys->resize(spec.roots);
  for (uint64_t& key : *keys) key = zipf.Sample(&rng);
}

std::vector<uint64_t> SenderKeys(const WorkloadSpec& spec,
                                 const std::vector<uint64_t>& keys,
                                 uint32_t sender) {
  std::vector<uint64_t> out;
  out.reserve(keys.size() / spec.spouts + 1);
  for (size_t pos = sender; pos < keys.size(); pos += spec.spouts) {
    out.push_back(keys[pos]);
  }
  return out;
}

TrialResult RunTrial(const WorkloadSpec& spec, const TrialConfig& config,
                     std::vector<uint64_t>* keys, TrialTrace* trace) {
  TrialResult trial;
  const int64_t start_ns = NowNs();
  GenerateKeys(spec, config.seed, keys);
  trial.bolt_tallies.resize(spec.bolts);
  TrialShared shared;
  const TopologyBuilder::Topology topology =
      BuildTopology(spec, config.grouping, keys, &trial, &shared, trace);

  TopologyOptions options;
  options.max_pending_per_spout = kMaxPendingPerSpout;
  options.hash_seed = kHashSeed;
  options.seed = config.seed;
  TopologyRuntimeOptions runtime;
  runtime.num_threads = config.threads;

  const double cpu_before = CpuSeconds();
  Result<TopologyStats> result =
      ExecuteTopologyThreaded(topology, options, runtime);
  trial.cpu_s = CpuSeconds() - cpu_before;
  if (!result.ok()) {
    trial.error = result.status().ToString();
    return trial;
  }
  trial.stats = std::move(result).value();
  trial.setup_s = static_cast<double>(shared.first_call_ns - start_ns) / 1e9;
  return trial;
}

ExpectedOutput ReplayExpected(const WorkloadSpec& spec,
                              const TrialConfig& config,
                              const std::vector<uint64_t>& keys) {
  ExpectedOutput expected;
  expected.roots = keys.size();
  expected.bolt_tuples = keys.size();
  expected.tuples = expected.roots + expected.bolt_tuples;
  expected.bolt_counts.assign(spec.bolts, 0);
  expected.bolt_digests.assign(spec.bolts, 0);

  const TopologyPlan plan =
      PlanTopology(
          BuildTopology(spec, config.grouping, nullptr, nullptr, nullptr,
                        nullptr))
          .value();
  std::vector<bool> held(spec.num_keys * spec.bolts, false);
  for (uint32_t s = 0; s < spec.spouts; ++s) {
    auto partitioners = MakeEdgePartitioners(plan, 0, kHashSeed).value();
    for (size_t pos = s; pos < keys.size(); pos += spec.spouts) {
      const uint64_t key = keys[pos];
      const uint32_t task = partitioners[0]->Route(key);
      ++expected.bolt_counts[task];
      expected.bolt_digests[task] += Mix64(key);
      if (!held[key * spec.bolts + task]) {
        held[key * spec.bolts + task] = true;
        ++expected.bolt_state_entries;
      }
    }
  }
  return expected;
}

std::vector<std::string> CheckTrial(const WorkloadSpec& spec,
                                    const TrialResult& trial,
                                    const ExpectedOutput& expected) {
  std::vector<std::string> errors;
  if (!trial.error.empty()) {
    errors.push_back("runtime failed: " + trial.error);
    return errors;
  }
  const auto expect_eq = [&errors](const std::string& what, uint64_t got,
                                   uint64_t want) {
    if (got != want) {
      errors.push_back(what + ": got " + std::to_string(got) + ", want " +
                       std::to_string(want));
    }
  };
  const TopologyStats& stats = trial.stats;
  expect_eq("roots_acked", stats.roots_acked, expected.roots);
  expect_eq("tuples_processed", stats.tuples_processed, expected.tuples);
  uint64_t bolt_tuples = 0;
  for (const ComponentStats& cs : stats.components) {
    if (cs.name != "spout") bolt_tuples += cs.tuples_processed;
  }
  expect_eq("bolt tuples_processed", bolt_tuples, expected.bolt_tuples);
  for (uint32_t t = 0; t < spec.bolts; ++t) {
    const std::string task = "bolt task " + std::to_string(t);
    expect_eq(task + " count", trial.bolt_tallies[t].executed,
              expected.bolt_counts[t]);
    expect_eq(task + " key digest", trial.bolt_tallies[t].digest,
              expected.bolt_digests[t]);
  }
  const ComponentStats* bolt = FindComponent(stats, "bolt");
  expect_eq("bolt state_entries", bolt ? bolt->state_entries : 0,
            expected.bolt_state_entries);
  return errors;
}

}  // namespace slb::perfbench
