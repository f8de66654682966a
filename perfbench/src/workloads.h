// The benchmark's workloads and one trial of each on the threaded runtime.
//
// A trial materialises a seeded Zipf key stream, builds the workload's
// topology from the spouts and bolts defined in workloads.cc, and runs it to
// exhaustion with ExecuteTopologyThreaded. Load is a closed loop: every spout
// task keeps max_pending_per_spout root trees in flight, as Storm's
// max-spout-pending does. Each root carries its stream position as the
// tuple value, which the traced run uses to tie bolt spans to their root.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "slb/core/partitioner.h"
#include "slb/dspe/topology.h"
#include "spans.h"

namespace slb::perfbench {

inline constexpr uint32_t kMaxPendingPerSpout = 70;

/// Base hash seed of every partitioned edge: the library default, the same
/// in every run. The workload seed changes the key stream, not the system's
/// hash functions, so runs with different seeds place the hot keys' worker
/// candidates alike.
inline constexpr uint64_t kHashSeed = TopologyOptions{}.hash_seed;

struct WorkloadSpec {
  std::string name;
  double zipf_z = 1.0;
  uint64_t num_keys = 0;
  uint32_t spouts = 0;
  /// Grouping of the spout -> first bolt edge.
  AlgorithmKind grouping = AlgorithmKind::kDChoices;
  uint32_t bolts = 0;
  /// Dependent integer-mix iterations per unit of tuple cost (0: the first
  /// bolt is a CountingBolt that does no extra work).
  uint32_t work_iterations = 0;
  /// Root tuples per trial.
  uint64_t roots = 0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Writes the seeded key stream of one trial into `keys`, reusing its
/// storage; spout s emits positions s, s+S, ...
void GenerateKeys(const WorkloadSpec& spec, uint64_t seed,
                  std::vector<uint64_t>* keys);

/// Key sequence one spout task routes (its round-robin share of `keys`).
std::vector<uint64_t> SenderKeys(const WorkloadSpec& spec,
                                 const std::vector<uint64_t>& keys,
                                 uint32_t sender);

/// Per bolt task counters of one trial. `digest` sums Mix64 of every key the
/// task executed, so equal digests mean the task saw the same key multiset.
struct alignas(64) TaskTally {
  uint64_t executed = 0;
  uint64_t digest = 0;
};

struct TrialConfig {
  uint64_t seed = 0;
  uint32_t threads = 1;
  /// Grouping of the first edge: spec.grouping, or KG / PKG in the traced
  /// run's validity trials.
  AlgorithmKind grouping = AlgorithmKind::kDChoices;
};

struct TrialResult {
  std::string error;  // non-empty when the runtime reported a failure
  TopologyStats stats;
  /// Start of the trial (before key generation) to the first NextTuple call.
  double setup_s = 0.0;
  /// User + system CPU seconds of the process across ExecuteTopologyThreaded.
  double cpu_s = 0.0;
  std::vector<TaskTally> bolt_tallies;
};

/// Runs one trial. It first generates its key stream into `keys`, a buffer
/// the caller keeps across trials so that each trial's set-up reuses the
/// same memory; the spouts then read it. With `trace` non-null, spouts and
/// bolts are wrapped in the timing decorators and record into it; `trace`
/// must be sized for the spec (TrialTrace(spec.spouts, spec.bolts,
/// spec.roots)).
TrialResult RunTrial(const WorkloadSpec& spec, const TrialConfig& config,
                     std::vector<uint64_t>* keys, TrialTrace* trace);

/// What a correct trial produces: per-task counts obtained by replaying
/// each sender's partitioner outside the runtime over its key sequence.
struct ExpectedOutput {
  uint64_t roots = 0;
  /// TopologyStats::tuples_processed counts spout emissions and bolt
  /// executions; bolt_tuples counts only the latter (one ack each).
  uint64_t tuples = 0;
  uint64_t bolt_tuples = 0;
  std::vector<uint64_t> bolt_counts, bolt_digests;
  size_t bolt_state_entries = 0;  // distinct (key, task) pairs
};

ExpectedOutput ReplayExpected(const WorkloadSpec& spec,
                              const TrialConfig& config,
                              const std::vector<uint64_t>& keys);

/// Compares a trial against the replay; returns one message per mismatch.
std::vector<std::string> CheckTrial(const WorkloadSpec& spec,
                                    const TrialResult& trial,
                                    const ExpectedOutput& expected);

}  // namespace slb::perfbench
