// Per-layer replays for the traced run: each one times calls into a single
// module's public functions from outside the runtime, on the workload's own
// keys, in passes taken in turn with the other replays, and reports the
// fastest pass of each chunk of calls (see RunInTurn in layers.cc for why).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace slb::perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Runs every layer replay for about `budget_s` seconds in total and adds
/// workload.*, hash.*, sketch.*, analysis.*, core.route_ns*, core.head_*,
/// core.reoptimizes and dspe.ring.push_pop_ns to `metrics`. Each timed lap
/// also lands in `spans`.
void RunLayerReplays(const WorkloadSpec& spec, uint64_t seed,
                     const std::vector<uint64_t>& keys, double budget_s,
                     Metrics* metrics, std::vector<Span>* spans);

}  // namespace slb::perfbench
