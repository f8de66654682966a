#include "dspe_cell.h"

#include <cctype>
#include <memory>
#include <utility>
#include <vector>

#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"

namespace slb::bench {
namespace {

// The cell's spout: the scenario's global stream split round-robin among
// the spout tasks (spout s emits keys s, s+S, s+2S, ...). This is the same
// sender interleave the partition simulator models, so both engines and the
// partition simulator route the same keys from the same senders: the
// property the elastic-rescale replay and the sim-vs-threaded equivalence
// test depend on. All spouts share one materialized key vector (read-only
// after construction, so thread-safe).
class CellVectorSpout final : public Spout {
 public:
  CellVectorSpout(std::shared_ptr<const std::vector<uint64_t>> keys,
                  uint64_t offset, uint64_t stride)
      : keys_(std::move(keys)), pos_(offset), stride_(stride) {}

  bool NextTuple(TopologyTuple* out) override {
    if (pos_ >= keys_->size()) return false;
    out->key = (*keys_)[pos_];
    out->value = 1;
    pos_ += stride_;
    return true;
  }

 private:
  std::shared_ptr<const std::vector<uint64_t>> keys_;
  uint64_t pos_;
  uint64_t stride_;
};

Result<CellPayload> RunCell(const DspeCellOptions& options,
                            const SweepCellContext& ctx) {
  // The paper's cluster shape: num_sources spout tasks splitting the
  // scenario's stream round-robin, `n` worker-bolt tasks, the cell's
  // grouping scheme on the single edge. Worker state is a real per-key sum.
  auto gen = ctx.MakeStream();
  if (!gen.ok()) return gen.status();
  const uint64_t num_messages = (*gen)->num_messages();
  auto stream = std::make_shared<std::vector<uint64_t>>();
  stream->reserve(num_messages);
  for (uint64_t i = 0; i < num_messages; ++i) {
    stream->push_back((*gen)->NextKey());
  }
  std::shared_ptr<const std::vector<uint64_t>> shared_stream = stream;
  const uint32_t num_sources = ctx.variant->num_sources > 0
                                   ? ctx.variant->num_sources
                                   : ctx.grid->num_sources;

  TopologyBuilder builder;
  builder.AddSpout(
      "sources",
      [shared_stream, num_sources](uint32_t task) {
        return std::make_unique<CellVectorSpout>(shared_stream, task,
                                                 num_sources);
      },
      num_sources);
  Grouping grouping;
  grouping.algorithm = ctx.algorithm;
  // theta/epsilon/sketch knobs carry over; num_workers and hash_seed are
  // filled in by the engine from the destination parallelism and edge seed.
  grouping.options = ctx.variant->options;
  builder
      .AddBolt("workers",
               [](uint32_t) { return std::make_unique<CountingBolt>(); },
               ctx.num_workers)
      .Input("sources", grouping);

  // The cluster's service times and credit window are TopologyOptions'
  // defaults; only the seeds are per cell.
  TopologyOptions topology_options;
  topology_options.hash_seed = ctx.grid->seed;
  topology_options.seed = ctx.run_seed;

  // Live elastic rescale (threaded engine only): the variant's schedule (the
  // sweep axis in bench_elastic_rescale) wins over the grid default,
  // mirroring how the simulator's RunDefault() resolves it.
  TopologyRuntimeOptions runtime = options.runtime;
  const RescaleSchedule& schedule = !ctx.variant->rescale.empty()
                                        ? ctx.variant->rescale
                                        : ctx.grid->rescale;
  if (!schedule.empty()) {
    runtime.rescale.schedule = schedule;
    runtime.rescale.total_messages = num_messages;
  }

  const bool threaded = options.engine == DspeEngine::kThreaded;
  auto result = threaded ? ExecuteTopologyThreaded(builder.Build(),
                                                   topology_options, runtime)
                         : ExecuteTopology(builder.Build(), topology_options);
  if (!result.ok()) return result.status();
  const TopologyStats& stats = result.value();
  const ComponentStats& workers = stats.components.back();

  CellPayload payload;
  payload.sim.total_messages = stats.roots_acked;
  if (options.throughput) {
    ThroughputCounters counters;
    counters.throughput_per_s = stats.throughput_per_s;
    counters.makespan_s = stats.makespan_s;
    counters.completed = stats.roots_acked;
    payload.throughput = counters;
  }
  if (options.latency) {
    LatencySnapshot snapshot;
    snapshot.count = static_cast<int64_t>(stats.roots_acked);
    snapshot.avg_ms = stats.latency_avg_ms;
    snapshot.p50_ms = stats.latency_p50_ms;
    snapshot.p95_ms = stats.latency_p95_ms;
    snapshot.p99_ms = stats.latency_p99_ms;
    snapshot.max_ms = stats.latency_max_ms;
    payload.latency = snapshot;
  }
  if (options.worker_latency) {
    const TaskLatencySummary summary = SummarizeTaskLatency(workers);
    payload.AddMetric("worker_avg_max_ms", summary.max_ms);
    payload.AddMetric("worker_avg_p50_ms", summary.p50_ms);
    payload.AddMetric("worker_avg_p95_ms", summary.p95_ms);
    payload.AddMetric("worker_avg_p99_ms", summary.p99_ms);
  }
  if (!threaded) return payload;

  // Executor idle accounting (the wait ladder's yield and park rungs; the
  // pause rung is not timed). Always attached so the smoke guard can assert
  // the columns exist and are non-negative on every threaded run.
  payload.AddMetric("idle_s", stats.idle_s);
  payload.AddMetric("park_s", stats.park_s);
  payload.AddCount("parks", stats.parks);
  payload.AddCount("threads_pinned", stats.threads_pinned);
  if (!schedule.empty()) {
    // Modeled replay counters go where the simulator puts them (so the
    // rescale summary tables render both engines uniformly); the live
    // protocol's measured costs ride as named metric columns.
    const TopologyRescaleStats& rs = stats.rescale;
    MigrationCounters mig;
    mig.final_num_workers = rs.final_parallelism;
    mig.rescale_events = rs.rescale_events;
    mig.keys_migrated = rs.keys_migrated;
    mig.state_bytes_migrated = rs.state_bytes_migrated;
    mig.stalled_messages = rs.stalled_messages;
    mig.moved_key_fraction = rs.moved_key_fraction;
    payload.migration = mig;
    payload.AddMetric("quiesce_s", rs.total_quiesce_s);
    payload.AddMetric("credit_drain_s", rs.total_credit_drain_s);
    payload.AddMetric("migration_stall_s", rs.total_migration_stall_s);
    payload.AddCount("handoff_frames", rs.handoff_frames);
    payload.AddCount("measured_stalls", rs.measured_stalled_messages);
    payload.sim.final_imbalance = workers.imbalance;
    payload.sim.worker_loads = workers.task_loads;
    payload.sim.final_num_workers = rs.final_parallelism;
  }
  return payload;
}

}  // namespace

Result<DspeEngine> ParseDspeEngine(const std::string& text) {
  std::string lower = text;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (lower == "sim") return DspeEngine::kSim;
  if (lower == "threaded") return DspeEngine::kThreaded;
  return Status::InvalidArgument("unknown engine '" + text +
                                 "' (expected sim or threaded)");
}

SweepCellRunner MakeDspeCellRunner(DspeCellOptions options) {
  return [options](const SweepCellContext& ctx) {
    return RunCell(options, ctx);
  };
}

}  // namespace slb::bench
