#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "slb/analysis/choices.h"
#include "slb/common/rng.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/spsc_queue.h"
#include "slb/hash/hash_family.h"
#include "slb/sketch/space_saving.h"
#include "slb/workload/zipf.h"

namespace slb::perfbench {
namespace {

// Results of timed loops land here so the compiler cannot drop the loops.
volatile uint64_t g_sink = 0;

// The runtime's default emit batch (TopologyRuntimeOptions::batch_size).
constexpr size_t kBatch = 64;

// Operations timed together: about a microsecond or more of work, so the two
// clock reads around a chunk add little.
constexpr size_t kChunk = 4096;

// One timed replay: `body(begin, end)` does operations [begin, end) of [0, n)
// and returns a value for the sink; `reset()`, untimed, starts each pass
// from a fresh state. Each index stands for `ops_per_index` operations. The
// metric is reported in `unit`, of `unit_ns` nanoseconds.
struct Replay {
  std::string metric;
  const char* unit;
  double unit_ns;
  const char* span_name;
  size_t n;
  double ops_per_index;
  std::function<void()> reset;
  std::function<uint64_t(size_t, size_t)> body;
};

// Makes passes of every replay in turn, one pass each per round, for at
// least kMinRounds rounds and until `budget_s` elapses, timing each pass in
// chunks of kChunk indices. Returns each replay's sum over chunks of the
// chunk's fastest pass, in ns per operation.
//
// Why the fastest pass per chunk, with the replays in turn: the rest of the
// host (other processes, a busy sibling hyperthread) only ever adds time, in
// spells of up to a few seconds. Between runs of unchanged code, the median
// pass of the D-C route replay moved by up to 60%. A replay whose passes all
// fall inside one spell reads slow however it is summarised; taken in turn,
// every replay's passes spread over the whole budget.
std::vector<double> RunInTurn(const std::vector<Replay>& replays,
                              double budget_s, std::vector<Span>* spans) {
  constexpr int kMinRounds = 3;
  // fastest[i][c]: replay i's fastest pass over chunk c, ns.
  std::vector<std::vector<int64_t>> fastest;
  for (const Replay& r : replays) {
    fastest.emplace_back((r.n + kChunk - 1) / kChunk,
                         std::numeric_limits<int64_t>::max());
  }
  uint64_t sum = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int round = 0; round < kMinRounds || NowNs() < deadline; ++round) {
    for (size_t i = 0; i < replays.size(); ++i) {
      const Replay& r = replays[i];
      r.reset();
      const int64_t pass_start = NowNs();
      for (size_t c = 0; c < fastest[i].size(); ++c) {
        const size_t begin = c * kChunk;
        const int64_t start = NowNs();
        sum += r.body(begin, std::min(r.n, begin + kChunk));
        fastest[i][c] = std::min(fastest[i][c], NowNs() - start);
      }
      spans->push_back(
          Span{r.span_name, pass_start, NowNs() - pass_start, 0, 0});
    }
  }
  g_sink = sum;
  std::vector<double> ns_per_op;
  for (size_t i = 0; i < replays.size(); ++i) {
    int64_t total_ns = 0;
    for (int64_t ns : fastest[i]) total_ns += ns;
    ns_per_op.push_back(static_cast<double>(total_ns) /
                        (static_cast<double>(replays[i].n) *
                         replays[i].ops_per_index));
  }
  return ns_per_op;
}

// The spout edge's partitioner options, as MakeEdgePartitioners sets them.
PartitionerOptions EdgeOptions(const WorkloadSpec& spec) {
  PartitionerOptions options;
  options.num_workers = spec.bolts;
  options.hash_seed = EdgeHashSeed(kHashSeed, 0, 0);
  return options;
}

std::unique_ptr<StreamPartitioner> MakeEdgePartitioner(
    AlgorithmKind kind, const WorkloadSpec& spec) {
  return CreatePartitioner(kind, EdgeOptions(spec)).value();
}

struct RingItem {
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t spout_task = 0;
  uint32_t root_slot = 0;
};

// One producer thread publishes `items` tuples through a runtime-sized ring
// in emit batches of 64 while the calling thread drains it in batches of 64.
uint64_t RingPass(uint64_t items) {
  SpscRing<RingItem> ring(1024);
  std::thread producer([&ring, items] {
    RingItem batch[kBatch];
    uint64_t next = 0;
    while (next < items) {
      const size_t count =
          static_cast<size_t>(std::min<uint64_t>(kBatch, items - next));
      for (size_t i = 0; i < count; ++i) batch[i].key = next + i;
      size_t sent = 0;
      while (sent < count) sent += ring.TryPushBatch(batch + sent, count - sent);
      next += count;
    }
  });
  RingItem batch[kBatch];
  uint64_t received = 0;
  uint64_t sum = 0;
  while (received < items) {
    const size_t got = ring.TryPopBatch(batch, kBatch);
    for (size_t i = 0; i < got; ++i) sum += batch[i].key;
    received += got;
  }
  producer.join();
  return sum;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void RunLayerReplays(const WorkloadSpec& spec, uint64_t seed,
                     const std::vector<uint64_t>& keys, double budget_s,
                     Metrics* metrics, std::vector<Span>* spans) {
  const std::vector<uint64_t> sender = SenderKeys(spec, keys, 0);
  const PartitionerOptions edge = EdgeOptions(spec);
  const double theta = edge.theta();
  const auto capacity = std::max<size_t>(
      64, static_cast<size_t>(std::ceil(2.0 / theta)));
  const auto no_reset = [] {};
  std::vector<Replay> replays;

  const ZipfDistribution zipf(spec.zipf_z, spec.num_keys);
  uint64_t pass_seed = seed;
  Rng rng(pass_seed);
  replays.push_back(
      {"workload.keygen_ns", "ns", 1.0, "replay.zipf_sample", keys.size(), 1.0,
       [&] { rng = Rng(++pass_seed); },
       [&](size_t begin, size_t end) {
         uint64_t sum = 0;
         for (size_t i = begin; i < end; ++i) sum += zipf.Sample(&rng);
         return sum;
       }});

  const HashFamily family(2, spec.bolts, edge.hash_seed);
  replays.push_back({"hash.worker2_ns", "ns", 1.0, "replay.worker2",
                     sender.size(), 1.0, no_reset,
                     [&](size_t begin, size_t end) {
                       uint64_t sum = 0;
                       for (size_t i = begin; i < end; ++i) {
                         uint32_t w0 = 0, w1 = 0;
                         family.Worker2(sender[i], &w0, &w1);
                         sum += w0 ^ (w1 << 8);
                       }
                       return sum;
                     }});

  std::optional<SpaceSaving> sketch;
  replays.push_back({"sketch.update_ns", "ns", 1.0, "replay.sketch_update",
                     sender.size(), 1.0, [&] { sketch.emplace(capacity); },
                     [&](size_t begin, size_t end) {
                       uint64_t sum = 0;
                       for (size_t i = begin; i < end; ++i) {
                         sum += sketch->UpdateAndEstimate(sender[i]);
                       }
                       return sum;
                     }});

  SpaceSaving full(capacity);
  for (uint64_t key : sender) full.UpdateAndEstimate(key);
  const std::vector<HeavyKey> heavy = full.HeavyHitters(theta);
  replays.push_back({"sketch.heavy_hitters_us", "us", 1e3,
                     "replay.heavy_hitters", 1, 1.0, no_reset,
                     [&](size_t, size_t) {
                       return full.HeavyHitters(theta).size();
                     }});

  std::vector<double> probs;
  for (const HeavyKey& hk : heavy) {
    probs.push_back(static_cast<double>(hk.count) /
                    static_cast<double>(full.total()));
  }
  const HeadProfile head = HeadProfile::FromProbabilities(std::move(probs));
  replays.push_back({"analysis.find_d_us", "us", 1e3,
                     "replay.find_optimal_choices", 1, 1.0, no_reset,
                     [&](size_t, size_t) {
                       return static_cast<uint64_t>(
                           FindOptimalChoices(head, spec.bolts, edge.epsilon));
                     }});

  // One Route call per key over one sender's sequence, through the
  // StreamPartitioner interface: a virtual call per tuple, as the runtime's
  // emit path (RouteCopies) makes it. Every pass starts from a fresh
  // partitioner.
  const std::pair<const char*, AlgorithmKind> kinds[] = {
      {"kg", AlgorithmKind::kKeyGrouping},
      {"pkg", AlgorithmKind::kPkg},
      {"dc", AlgorithmKind::kDChoices},
      {"wc", AlgorithmKind::kWChoices},
      {"sg", AlgorithmKind::kShuffleGrouping},
  };
  std::unique_ptr<StreamPartitioner> partitioners[std::size(kinds)];
  for (size_t k = 0; k < std::size(kinds); ++k) {
    const AlgorithmKind kind = kinds[k].second;
    std::unique_ptr<StreamPartitioner>* partitioner = &partitioners[k];
    replays.push_back(
        {std::string("core.route_ns.") + kinds[k].first, "ns", 1.0,
         "replay.route", sender.size(), 1.0,
         [&spec, kind, partitioner] {
           *partitioner = MakeEdgePartitioner(kind, spec);
         },
         [&sender, partitioner](size_t begin, size_t end) {
           StreamPartitioner* p = partitioner->get();
           uint64_t sum = 0;
           for (size_t i = begin; i < end; ++i) sum += p->Route(sender[i]);
           return sum;
         }});
  }

  constexpr uint64_t kRingItems = 1 << 20;
  replays.push_back({"dspe.ring.push_pop_ns", "ns", 1.0,
                     "replay.ring_push_pop", 1,
                     static_cast<double>(kRingItems), no_reset,
                     [](size_t, size_t) { return RingPass(kRingItems); }});

  Metrics& m = *metrics;
  const std::vector<double> ns_per_op = RunInTurn(replays, budget_s, spans);
  for (size_t i = 0; i < replays.size(); ++i) {
    m[replays[i].metric] = {ns_per_op[i] / replays[i].unit_ns,
                            replays[i].unit};
  }
  // The workload's own grouping: the same replay, not timed twice.
  for (const auto& [suffix, kind] : kinds) {
    if (kind == spec.grouping) {
      m["core.route_ns"] = m[std::string("core.route_ns.") + suffix];
    }
  }

  {
    auto partitioner = MakeEdgePartitioner(spec.grouping, spec);
    uint64_t head_routes = 0;
    for (uint64_t key : sender) {
      partitioner->Route(key);
      head_routes += partitioner->last_was_head() ? 1 : 0;
    }
    m["core.head_share"] = {static_cast<double>(head_routes) /
                                static_cast<double>(sender.size()),
                            "share"};
    m["core.head_choices"] = {
        static_cast<double>(partitioner->head_choices()), "count"};
    m["core.reoptimizes"] = {
        static_cast<double>(partitioner->reoptimize_count()), "count"};
  }
}

}  // namespace slb::perfbench
