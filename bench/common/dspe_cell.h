// Sweep cell runner for the cluster-level experiments (Figs. 13-14). Every
// cell builds the same topology: `sources` spout tasks splitting the
// scenario's stream round-robin into `n` CountingBolt workers over the cell's
// grouping. It then runs on one of two engines:
//
//   * kSim       — ExecuteTopology, the discrete-event model of the paper's
//                  Storm cluster (TopologyOptions' default service times;
//                  deterministic, fast);
//   * kThreaded  — ExecuteTopologyThreaded, the real multi-threaded runtime
//                  (SPSC rings, credit backpressure): throughput and latency
//                  are *measured* on the host, not modeled.
//
// Routing is byte-identical across the two: both use the scenario stream and
// the per-edge hash seed. Either way the cell reports throughput counters and
// latency snapshots in the cell payload (the partition-sim fields stay zero —
// these experiments measure the cluster, not routing imbalance).

#pragma once

#include <string>

#include "slb/dspe/runtime.h"
#include "slb/sim/sweep.h"

namespace slb::bench {

enum class DspeEngine {
  kSim,       // discrete-event queueing model
  kThreaded,  // real threads, measured wall-clock
};

/// Parses "sim" / "threaded" (case-insensitive).
Result<DspeEngine> ParseDspeEngine(const std::string& text);

struct DspeCellOptions {
  DspeEngine engine = DspeEngine::kSim;
  /// kThreaded only: executor threads / ring sizes / emit batch.
  TopologyRuntimeOptions runtime;
  /// Which payload components the cells attach.
  bool throughput = true;       // Fig. 13 columns
  bool latency = true;          // tuple-level latency snapshot
  bool worker_latency = false;  // Fig. 14's per-worker average percentiles
                                // (kSim only: the threaded runtime leaves
                                // task_latency_avg_ms empty)
};

SweepCellRunner MakeDspeCellRunner(DspeCellOptions options);

}  // namespace slb::bench
