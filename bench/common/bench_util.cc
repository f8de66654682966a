#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "slb/sim/report.h"
#include "slb/workload/datasets.h"

namespace slb::bench {

BenchEnv ParseBenchArgs(int argc, char** argv, const std::string& description,
                        FlagSet* extra, BenchEnv defaults) {
  static BenchEnv env;  // targets must outlive Parse
  env = std::move(defaults);
  FlagSet own(description);
  FlagSet& flags = extra != nullptr ? *extra : own;
  flags.AddBool("paper", &env.paper, "use paper-scale parameters (slow)");
  flags.AddInt64("messages", &env.messages,
                 "stream length override (0 = per-bench default)");
  flags.AddInt64("sources", &env.sources, "number of sources");
  flags.AddInt64("seed", &env.seed, "master RNG seed");
  flags.AddInt64("runs", &env.runs, "independent runs to average");
  flags.AddInt64("threads", &env.threads, "sweep parallelism (0 = hardware)");
  flags.AddString("format", &env.format, "summary table format: tsv/csv/json");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Usage().c_str());
    std::exit(2);
  }
  if (flags.help_requested()) std::exit(0);
  if (env.format != "tsv" && env.format != "csv" && env.format != "json") {
    std::fprintf(stderr, "bad --format '%s' (want tsv, csv, or json)\n",
                 env.format.c_str());
    std::exit(2);
  }
  return env;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& parameters) {
  std::printf("# %s\n", experiment.c_str());
  std::printf("# Reproduces: %s of \"When Two Choices Are not Enough\" "
              "(Nasir et al., ICDE 2016)\n",
              paper_ref.c_str());
  std::printf("# Parameters: %s\n", parameters.c_str());
}

std::vector<double> SkewGrid(bool paper) {
  std::vector<double> grid;
  const double step = paper ? 0.1 : 0.2;
  for (double z = step >= 0.2 ? 0.2 : 0.1; z <= 2.0 + 1e-9; z += step) {
    grid.push_back(z);
  }
  return grid;
}

std::vector<SweepScenario> SkewScenarios(bool paper, uint64_t num_keys,
                                         uint64_t num_messages, uint64_t seed) {
  return ZipfScenarios(SkewGrid(paper), num_keys, num_messages, seed);
}

std::vector<SweepScenario> ZipfScenarios(const std::vector<double>& exponents,
                                         uint64_t num_keys,
                                         uint64_t num_messages, uint64_t seed) {
  std::vector<SweepScenario> scenarios;
  for (double z : exponents) {
    DatasetSpec spec = MakeZipfSpec(z, num_keys, num_messages, seed);
    char label[16];
    std::snprintf(label, sizeof(label), "z=%.1f", z);
    spec.name = label;
    scenarios.push_back(ScenarioFromDataset(spec));
  }
  return scenarios;
}

std::string Sci(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4e", value);
  return buf;
}

namespace {

std::string RenderTable(const SweepResultTable& table,
                        const std::string& format) {
  if (format == "csv") return SweepToCsv(table);
  if (format == "json") return SweepToJson(table);
  return SweepToTsv(table);
}

int Report(const BenchEnv& env, const SweepResultTable& table,
           ReportMode mode) {
  switch (mode) {
    case ReportMode::kTable:
      std::fputs(RenderTable(table, env.format).c_str(), stdout);
      break;
    case ReportMode::kSeries:
      std::fputs(SweepSeriesToTsv(table).c_str(), stdout);
      break;
    case ReportMode::kTableAndSeries:
      std::fputs(RenderTable(table, env.format).c_str(), stdout);
      std::fputs("\n", stdout);
      std::fputs(SweepSeriesToTsv(table).c_str(), stdout);
      break;
    case ReportMode::kWorkerLoads:
      std::fputs(SweepWorkerLoadsToTsv(table).c_str(), stdout);
      break;
  }
  return table.num_errors() == 0 ? 0 : 1;
}

}  // namespace

int RunGridAndReport(const BenchEnv& env, SweepGrid grid, ReportMode mode) {
  std::vector<SweepGrid> grids;
  grids.push_back(std::move(grid));
  return RunGridsAndReport(env, std::move(grids), mode);
}

SweepResultTable RunGridForEnv(const BenchEnv& env, SweepGrid grid) {
  grid.num_sources = static_cast<uint32_t>(env.sources);
  grid.seed = static_cast<uint64_t>(env.seed);
  grid.runs = static_cast<uint32_t>(env.runs < 1 ? 1 : env.runs);
  return RunSweep(grid, static_cast<size_t>(env.threads));
}

bool CheckReportFormat(const BenchEnv& env, ReportMode mode) {
  // The long-format emitters (series / worker-loads) are TSV-only; honor
  // the flag contract instead of silently ignoring --format.
  if (mode != ReportMode::kTable && env.format != "tsv") {
    std::fprintf(stderr,
                 "--format %s is not supported here: this bench emits a "
                 "long-format TSV table (only --format tsv)\n",
                 env.format.c_str());
    return false;
  }
  return true;
}

int ReportTable(const BenchEnv& env, const SweepResultTable& table,
                ReportMode mode) {
  if (!CheckReportFormat(env, mode)) return 2;
  return Report(env, table, mode);
}

int RunGridsAndReport(const BenchEnv& env, std::vector<SweepGrid> grids,
                      ReportMode mode) {
  // Reject the mode/format combination BEFORE sweeping.
  if (!CheckReportFormat(env, mode)) return 2;
  SweepResultTable table;
  for (SweepGrid& grid : grids) {
    SweepResultTable part = RunGridForEnv(env, std::move(grid));
    for (SweepCellResult& cell : part.cells) {
      table.cells.push_back(std::move(cell));
    }
  }
  return Report(env, table, mode);
}

}  // namespace slb::bench
