// In-memory tracing for the traced benchmark run.
//
// Nothing here runs in an untraced run: the traced run wraps the benchmark's
// spouts and bolts in TracedSpout / TracedBolt (workloads.cc), which read the
// clock around every call into them and keep spans for one root in
// kSampleEvery. Spans stay in per-task buffers (each written by the one
// executor thread that drives the task) and are written out as Chrome Trace
// Event JSON after the run, which Perfetto and chrome://tracing open.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace slb::perfbench {

/// Roots whose id is a multiple of this get spans and a transport-delay
/// sample.
inline constexpr uint64_t kSampleEvery = 64;

/// A gap between two NextTuple calls of one spout at or above this length is
/// time the spout was not emitting (credit window full, ring full, or its
/// executor thread busy elsewhere); shorter gaps are in-burst emit cost.
inline constexpr int64_t kLongGapNs = 10'000;
inline constexpr int64_t kGapBinNs = 2;

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Small dense index of the calling thread, assigned on first use.
int32_t CurrentThreadIndex();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t root = 0;
  int32_t thread = 0;
};

/// One spout task's NextTuple timing. Written only by its executor thread.
struct alignas(64) SpoutTrace {
  std::array<uint32_t, kLongGapNs / kGapBinNs> short_gaps{};
  int64_t short_gap_ns = 0;
  int64_t long_gap_ns = 0;
  int64_t first_call_ns = -1;
  int64_t last_call_ns = -1;
  bool span_open = false;
  std::vector<Span> spans;
};

/// One bolt task's execute timing. Written only by its executor thread.
struct alignas(64) BoltTrace {
  int64_t busy_ns = 0;
  int32_t thread = -1;
  std::vector<uint32_t> transport_ns;
  std::vector<Span> spans;
};

/// Everything one traced trial records.
struct TrialTrace {
  TrialTrace(uint32_t spout_tasks, uint32_t bolt_tasks, uint64_t roots)
      : spouts(spout_tasks), bolts(bolt_tasks),
        emit_ns(roots / kSampleEvery + 1, 0) {}

  std::vector<SpoutTrace> spouts;
  std::vector<BoltTrace> bolts;
  /// Emission time of sampled roots, indexed by root / kSampleEvery. The
  /// spout writes a slot before handing the tuple to the runtime and the
  /// bolt reads it after taking the tuple off a ring, so the ring's
  /// release/acquire pair orders the two accesses.
  std::vector<int64_t> emit_ns;
};

/// Median in-burst NextTuple gap over all spouts, ns.
double MedianShortGapNs(const TrialTrace& trace);

/// Chrome Trace Event JSON writer ("X" complete events, microseconds).
class ChromeTraceWriter {
 public:
  void Add(const Span& span, int32_t pid);
  /// Writes {"traceEvents": [...], "otherData": {...}}; false on I/O error.
  bool Write(const std::string& path, const std::string& other_data_json) const;

 private:
  std::vector<std::string> events_;
};

}  // namespace slb::perfbench
