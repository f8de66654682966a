// slb_perfbench: one run of one benchmark workload on the threaded runtime.
//
//   slb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--process P] [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics: one discarded warm-up trial,
// then trials until S seconds have passed, each checked against a replay of
// the senders' partitioners; every metric is the median over the trials.
// The trials cycle over kStreams key streams, numbered from P * kStreams and
// each seeded from N and its number, so the median does not rest on one
// stream; run.py gives each of its processes its own P.
// --trace 1 measures the per-layer metrics: first the per-layer replays,
// then traced trials alternating with untraced ones, then the validity runs
// (KG and PKG groupings, one executor thread); the spans are written to
// PATH as Chrome Trace Event JSON. A traced run uses key stream 0 only.
//
// Prints one JSON object on stdout: correctness, every metric with its unit,
// every trial's value, and the host fingerprint. perfbench/run.py builds and
// runs this binary and formats its result; see perfbench/README.md.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace slb::perfbench {
namespace {

constexpr int kMinTrials = 5;
constexpr int kMaxTrials = 1000;
constexpr int kMinTracedPairs = 3;
constexpr int kValidityTrials = 3;
constexpr int kWarmupTrials = 1;
// Share of a traced run's --seconds that the layer replays take.
constexpr double kReplayShare = 0.25;
constexpr int kStreams = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  uint64_t process = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--process") {
      args->process = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Seed of key stream `stream` of a run with seed `seed`. Stream 0 is the
/// run's seed itself; streams of runs with seeds below 2^32 never collide.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed + (stream << 32);
}

uint32_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<size_t>(
      std::min<double>(static_cast<double>(values.size() - 1),
                       std::floor(q * static_cast<double>(values.size()))));
  return values[index];
}

// --- JSON output ------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Per-trial values of every metric, in trial order.
using Series = std::map<std::string, std::vector<double>>;

struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Metrics metrics;
  Series trials;
  Series warmup;
  std::string trace_file;
};

std::string Fingerprint(const Args& args, uint32_t threads, int trials) {
  const uint32_t cpus = AvailableCpus();
  std::ostringstream os;
  os << "{\"nproc\":" << cpus << ",\"cpu_model\":" << JsonString(CpuModel())
     << ",\"compiler\":" << JsonString(Compiler())
     << ",\"build_type\":" << JsonString(SLB_PERFBENCH_BUILD_TYPE)
     << ",\"executor_threads\":" << threads << ",\"executor_threads_per_core\":"
     << JsonNumber(static_cast<double>(threads) / cpus)
     << ",\"seed\":" << args.seed << ",\"process\":" << args.process
     << ",\"streams\":" << (args.trace ? 1 : kStreams)
     << ",\"warmup_trials\":" << kWarmupTrials
     << ",\"trials\":" << trials
     << ",\"max_pending_per_spout\":" << kMaxPendingPerSpout << "}";
  return os.str();
}

void PrintReport(const Args& args, uint32_t threads, const RunReport& report) {
  std::ostringstream os;
  os << "{\"workload\":" << JsonString(args.workload) << ",\"seed\":" << args.seed
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"correct\":" << (report.failed == 0 && report.errors.empty() ? "true" : "false")
     << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
     << ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    os << (i ? "," : "") << JsonString(report.errors[i]);
  }
  int trials = 0;
  for (const auto& [name, values] : report.trials) {
    trials = std::max(trials, static_cast<int>(values.size()));
  }
  os << "],\"fingerprint\":" << Fingerprint(args, threads, trials)
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    os << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
       << JsonNumber(metric.value) << ",\"unit\":" << JsonString(metric.unit)
       << "}";
    first = false;
  }
  const auto series = [&os](const Series& s) {
    os << "{";
    bool first_series = true;
    for (const auto& [name, values] : s) {
      os << (first_series ? "" : ",") << JsonString(name) << ":[";
      for (size_t i = 0; i < values.size(); ++i) {
        os << (i ? "," : "") << JsonNumber(values[i]);
      }
      os << "]";
      first_series = false;
    }
    os << "}";
  };
  os << "},\"trials\":";
  series(report.trials);
  os << ",\"warmup\":";
  series(report.warmup);
  os << ",\"trace_file\":" << JsonString(report.trace_file) << "}";
  std::printf("%s\n", os.str().c_str());
}

// --- Trials -----------------------------------------------------------------

size_t StateEntries(const TopologyStats& stats) {
  size_t total = 0;
  for (const ComponentStats& cs : stats.components) total += cs.state_entries;
  return total;
}

double BoltImbalance(const TopologyStats& stats) {
  for (const ComponentStats& cs : stats.components) {
    if (cs.name == "bolt") return cs.imbalance;
  }
  return 0.0;
}

/// Counts a trial's roots as attempted, and all of them as failed when the
/// trial does not match `expected`.
void Account(const WorkloadSpec& spec, const TrialResult& trial,
             const ExpectedOutput& expected, RunReport* report) {
  report->attempted += spec.roots;
  const std::vector<std::string> errors = CheckTrial(spec, trial, expected);
  if (errors.empty()) return;
  report->failed += spec.roots;
  for (const std::string& e : errors) {
    if (report->errors.size() < 20) report->errors.push_back(e);
  }
}

TrialResult CheckedTrial(const WorkloadSpec& spec, const TrialConfig& config,
                         const ExpectedOutput& expected,
                         std::vector<uint64_t>* keys, TrialTrace* trace,
                         RunReport* report) {
  TrialResult trial = RunTrial(spec, config, keys, trace);
  Account(spec, trial, expected, report);
  return trial;
}

void RecordEndToEnd(const TrialResult& trial, uint32_t threads, Series* s) {
  const TopologyStats& stats = trial.stats;
  const double makespan = std::max(stats.makespan_s, 1e-9);
  (*s)["throughput_roots_per_s"].push_back(stats.throughput_per_s);
  (*s)["latency_p50_ms"].push_back(stats.latency_p50_ms);
  (*s)["latency_p95_ms"].push_back(stats.latency_p95_ms);
  (*s)["latency_p99_ms"].push_back(stats.latency_p99_ms);
  (*s)["latency_samples"].push_back(static_cast<double>(stats.roots_acked));
  (*s)["setup_s"].push_back(trial.setup_s);
  (*s)["cpu_s_per_mroot"].push_back(
      trial.cpu_s / (static_cast<double>(std::max<uint64_t>(stats.roots_acked, 1)) / 1e6));
  (*s)["state_entries"].push_back(static_cast<double>(StateEntries(stats)));
  (*s)["dspe.idle_share"].push_back(stats.idle_s / (threads * makespan));
  (*s)["dspe.park_s"].push_back(stats.park_s);
  (*s)["dspe.parks"].push_back(static_cast<double>(stats.parks));
  (*s)["core.imbalance"].push_back(BoltImbalance(stats));
  // Every bolt execution acks once; the rest of tuples_processed are the
  // spout's emissions, one per root.
  (*s)["dspe.acks_per_root"].push_back(
      static_cast<double>(stats.tuples_processed - stats.roots_acked) /
      static_cast<double>(std::max<uint64_t>(stats.roots_acked, 1)));
}

/// The replay a trial of `config` is checked against (every trial of one
/// stream seed regenerates the same keys).
ExpectedOutput Expect(const WorkloadSpec& spec, const TrialConfig& config) {
  std::vector<uint64_t> keys;
  GenerateKeys(spec, config.seed, &keys);
  return ReplayExpected(spec, config, keys);
}

/// The first run of a process: discarded from the medians, kept in the
/// report.
void Warmup(const WorkloadSpec& spec, const TrialConfig& config,
            const ExpectedOutput& expected, std::vector<uint64_t>* keys,
            uint32_t threads, RunReport* report) {
  const TrialResult warm = RunTrial(spec, config, keys, nullptr);
  Account(spec, warm, expected, report);
  RecordEndToEnd(warm, threads, &report->warmup);
}

void MedianInto(const Series& trials, const std::string& name,
                const std::string& unit, Metrics* metrics) {
  auto it = trials.find(name);
  (*metrics)[name] = {it == trials.end() ? 0.0 : Median(it->second), unit};
}

RunReport RunUntraced(const Args& args, const WorkloadSpec& spec,
                      uint32_t threads) {
  RunReport report;
  const int64_t start = NowNs();
  std::vector<TrialConfig> configs;
  std::vector<ExpectedOutput> expected;
  for (int k = 0; k < kStreams; ++k) {
    configs.push_back(
        TrialConfig{StreamSeed(args.seed, args.process * kStreams + k),
                    threads, spec.grouping});
    expected.push_back(Expect(spec, configs.back()));
  }
  std::vector<uint64_t> keys;
  Warmup(spec, configs[0], expected[0], &keys, threads, &report);
  for (int t = 0; t < kMaxTrials; ++t) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (t >= kMinTrials && elapsed >= args.seconds) break;
    const TrialResult trial = CheckedTrial(spec, configs[t % kStreams],
                                           expected[t % kStreams], &keys,
                                           nullptr, &report);
    RecordEndToEnd(trial, threads, &report.trials);
  }
  Metrics& m = report.metrics;
  MedianInto(report.trials, "throughput_roots_per_s", "1/s", &m);
  MedianInto(report.trials, "latency_p50_ms", "ms", &m);
  MedianInto(report.trials, "latency_p95_ms", "ms", &m);
  MedianInto(report.trials, "latency_p99_ms", "ms", &m);
  MedianInto(report.trials, "setup_s", "s", &m);
  MedianInto(report.trials, "cpu_s_per_mroot", "s", &m);
  MedianInto(report.trials, "state_entries", "count", &m);
  m["latency_samples"] = {0.0, "count"};
  for (double n : report.trials["latency_samples"]) m["latency_samples"].value += n;
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["error_share"] = {static_cast<double>(report.failed) /
                          static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
                      "share"};
  return report;
}

// Trace-derived metrics of one traced trial.
void RecordTraced(const TrialResult& trial, const TrialTrace& trace,
                  Series* s) {
  const double makespan_ns = std::max(trial.stats.makespan_s, 1e-9) * 1e9;
  int64_t short_ns = 0;
  int64_t long_ns = 0;
  for (const SpoutTrace& spout : trace.spouts) {
    short_ns += spout.short_gap_ns;
    long_ns += spout.long_gap_ns;
  }
  std::vector<double> transport_us;
  std::vector<double> execute_ns;
  std::map<int32_t, double> thread_busy;
  double task_busiest = 0.0;
  for (const BoltTrace& bolt : trace.bolts) {
    for (uint32_t ns : bolt.transport_ns) transport_us.push_back(ns / 1e3);
    for (const Span& span : bolt.spans) {
      execute_ns.push_back(static_cast<double>(span.dur_ns));
    }
    thread_busy[bolt.thread] += static_cast<double>(bolt.busy_ns);
    task_busiest = std::max(task_busiest, static_cast<double>(bolt.busy_ns));
  }
  double thread_busiest = 0.0;
  for (const auto& [thread, busy] : thread_busy) {
    thread_busiest = std::max(thread_busiest, busy);
  }
  (*s)["throughput_roots_per_s"].push_back(trial.stats.throughput_per_s);
  (*s)["dspe.spout.emit_ns"].push_back(MedianShortGapNs(trace));
  (*s)["dspe.spout.blocked_share"].push_back(
      static_cast<double>(long_ns) /
      static_cast<double>(std::max<int64_t>(short_ns + long_ns, 1)));
  (*s)["dspe.transport.delay_us.p50"].push_back(Quantile(transport_us, 0.5));
  (*s)["dspe.transport.delay_us.p99"].push_back(Quantile(transport_us, 0.99));
  (*s)["dspe.bolt.execute_ns"].push_back(Median(execute_ns));
  (*s)["dspe.thread.busiest_share"].push_back(thread_busiest / makespan_ns);
  (*s)["dspe.task.busiest_share"].push_back(task_busiest / makespan_ns);
}

void AddTrialSpans(const TrialTrace& trace, int64_t origin_ns,
                   ChromeTraceWriter* writer) {
  const auto add = [&](const std::vector<Span>& spans) {
    for (Span span : spans) {
      span.start_ns -= origin_ns;
      writer->Add(span, 1);
    }
  };
  for (const SpoutTrace& spout : trace.spouts) add(spout.spans);
  for (const BoltTrace& bolt : trace.bolts) add(bolt.spans);
}

RunReport RunTraced(const Args& args, const WorkloadSpec& spec,
                    uint32_t threads) {
  RunReport report;
  const int64_t start = NowNs();
  const auto elapsed_s = [start] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  const TrialConfig config{args.seed, threads, spec.grouping};
  const ExpectedOutput expected = Expect(spec, config);
  // Every trial of this run regenerates the same stream into `keys`, which
  // the layer replays and the validity runs' own replays read.
  std::vector<uint64_t> keys;
  GenerateKeys(spec, config.seed, &keys);

  // The layer replays come first, in a process that has run no topology
  // yet: after many trials, the same replays ran up to twice as slow in some
  // processes and not in others.
  Metrics& m = report.metrics;
  std::vector<Span> replay_spans;
  RunLayerReplays(spec, config.seed, keys, kReplayShare * args.seconds, &m,
                  &replay_spans);
  ChromeTraceWriter writer;
  for (Span span : replay_spans) {
    span.start_ns -= start;
    writer.Add(span, 2);
  }

  Warmup(spec, config, expected, &keys, threads, &report);
  // Traced trials alternate with untraced ones until 3/4 of the budget has
  // passed, so the tracing overhead is measured against trials taken at the
  // same time.
  Series untraced;
  Series traced;
  std::unique_ptr<TrialTrace> last_trace;
  int64_t last_origin = 0;
  for (int t = 0; t < kMaxTrials; ++t) {
    if (t >= 2 * kMinTracedPairs && elapsed_s() >= 0.75 * args.seconds) break;
    if (t % 2 == 0) {
      const TrialResult trial =
          CheckedTrial(spec, config, expected, &keys, nullptr, &report);
      RecordEndToEnd(trial, threads, &untraced);
    } else {
      auto trace = std::make_unique<TrialTrace>(
          spec.spouts, spec.bolts, spec.roots);
      last_origin = NowNs();
      const TrialResult trial =
          CheckedTrial(spec, config, expected, &keys, trace.get(), &report);
      RecordTraced(trial, *trace, &traced);
      last_trace = std::move(trace);
    }
  }
  AddTrialSpans(*last_trace, last_origin, &writer);

  const double throughput = Median(untraced["throughput_roots_per_s"]);
  for (const char* name :
       {"dspe.spout.emit_ns", "dspe.bolt.execute_ns"}) {
    MedianInto(traced, name, "ns", &m);
  }
  for (const char* name :
       {"dspe.spout.blocked_share", "dspe.thread.busiest_share",
        "dspe.task.busiest_share"}) {
    MedianInto(traced, name, "share", &m);
  }
  MedianInto(traced, "dspe.transport.delay_us.p50", "us", &m);
  MedianInto(traced, "dspe.transport.delay_us.p99", "us", &m);
  MedianInto(untraced, "dspe.idle_share", "share", &m);
  MedianInto(untraced, "dspe.park_s", "s", &m);
  MedianInto(untraced, "dspe.parks", "count", &m);
  MedianInto(untraced, "core.imbalance", "share", &m);
  m["trace.overhead_pct"] = {
      100.0 * (throughput - Median(traced["throughput_roots_per_s"])) /
          std::max(throughput, 1e-9),
      "%"};

  // Validity runs: the same stream under KG, PKG and the workload's own
  // grouping on the first edge, one trial of each in turn, so that a slow
  // spell of the host hits all three alike; then under one executor thread.
  // Each is the median of a few trials.
  const auto trial_throughput = [&](const TrialConfig& c,
                                    const ExpectedOutput& e) {
    return CheckedTrial(spec, c, e, &keys, nullptr, &report)
        .stats.throughput_per_s;
  };
  const TrialConfig kg_config{config.seed, threads,
                              AlgorithmKind::kKeyGrouping};
  const TrialConfig pkg_config{config.seed, threads, AlgorithmKind::kPkg};
  const TrialConfig one_thread_config{config.seed, 1, spec.grouping};
  const ExpectedOutput kg_expected = ReplayExpected(spec, kg_config, keys);
  const ExpectedOutput pkg_expected = ReplayExpected(spec, pkg_config, keys);
  std::vector<double> kg_runs, pkg_runs, own_runs, one_thread_runs;
  for (int i = 0; i < kValidityTrials; ++i) {
    kg_runs.push_back(trial_throughput(kg_config, kg_expected));
    pkg_runs.push_back(trial_throughput(pkg_config, pkg_expected));
    own_runs.push_back(trial_throughput(config, expected));
  }
  for (int i = 0; i < kValidityTrials; ++i) {
    one_thread_runs.push_back(trial_throughput(one_thread_config, expected));
  }
  const double kg = Median(std::move(kg_runs));
  const double pkg = Median(std::move(pkg_runs));
  const double own = Median(std::move(own_runs));
  m["valid.kg_throughput_ratio"] = {kg / std::max(own, 1e-9), "ratio"};
  m["valid.pkg_throughput_ratio"] = {pkg / std::max(own, 1e-9), "ratio"};
  m["dspe.speedup_1thread"] = {
      throughput / std::max(Median(std::move(one_thread_runs)), 1e-9),
      "ratio"};
  if (spec.work_iterations > 0 && !(kg < pkg && pkg < own)) {
    // skew-work exists because balance decides its throughput.
    report.errors.push_back("workload validity: want KG < PKG < " +
                            AlgorithmKindName(spec.grouping) +
                            " throughput, got " + std::to_string(kg) + ", " +
                            std::to_string(pkg) + ", " + std::to_string(own));
  }

  m["dspe.spout.route_share"] = {
      m["core.route_ns"].value / std::max(m["dspe.spout.emit_ns"].value, 1e-9),
      "share"};
  MedianInto(untraced, "dspe.acks_per_root", "count", &m);

  report.trials = std::move(traced);
  for (auto& [name, values] : untraced) {
    report.trials["untraced." + name] = std::move(values);
  }
  if (!args.trace_out.empty()) {
    std::ostringstream other;
    other << "{\"workload\":" << JsonString(spec.name)
          << ",\"seed\":" << args.seed << "}";
    if (!writer.Write(args.trace_out, other.str())) {
      report.errors.push_back("cannot write trace file " + args.trace_out);
    }
    report.trace_file = args.trace_out;
  }
  return report;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: slb_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--process P] [--trace-out PATH]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const uint32_t threads = AvailableCpus();
  const RunReport report = args.trace ? RunTraced(args, *spec, threads)
                                      : RunUntraced(args, *spec, threads);
  PrintReport(args, threads, report);
  return report.failed == 0 && report.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace slb::perfbench

int main(int argc, char** argv) { return slb::perfbench::Main(argc, argv); }
