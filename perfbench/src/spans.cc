#include "spans.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace slb::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t CurrentThreadIndex() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t index = next.fetch_add(1);
  return index;
}

double MedianShortGapNs(const TrialTrace& trace) {
  std::array<uint64_t, kLongGapNs / kGapBinNs> merged{};
  uint64_t total = 0;
  for (const SpoutTrace& spout : trace.spouts) {
    for (size_t b = 0; b < merged.size(); ++b) {
      merged[b] += spout.short_gaps[b];
      total += spout.short_gaps[b];
    }
  }
  if (total == 0) return 0.0;
  uint64_t seen = 0;
  for (size_t b = 0; b < merged.size(); ++b) {
    seen += merged[b];
    if (2 * seen >= total) {
      return (static_cast<double>(b) + 0.5) * static_cast<double>(kGapBinNs);
    }
  }
  return static_cast<double>(kLongGapNs);
}

void ChromeTraceWriter::Add(const Span& span, int32_t pid) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"root\":%" PRIu64 "}}",
                span.name, pid, span.thread,
                static_cast<double>(span.start_ns) / 1e3,
                static_cast<double>(span.dur_ns) / 1e3, span.root);
  events_.emplace_back(buf);
}

bool ChromeTraceWriter::Write(const std::string& path,
                              const std::string& other_data_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"otherData\":", f);
  std::fputs(other_data_json.c_str(), f);
  std::fputs(",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < events_.size(); ++i) {
    std::fputs(events_[i].c_str(), f);
    std::fputs(i + 1 < events_.size() ? ",\n" : "\n", f);
  }
  std::fputs("]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace slb::perfbench
