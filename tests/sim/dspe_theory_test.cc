// Crosschecks of the DSPE queueing model (ExecuteTopology; the model is set
// out in slb/dspe/topology.h) against closed-form predictions: the
// quantitative backing for the claim in docs/ARCHITECTURE.md that the engine
// reproduces the throughput/latency *mechanisms* of the paper's cluster.

#include <gtest/gtest.h>

#include "slb/workload/zipf.h"
#include "zipf_cluster.h"

namespace slb {
namespace {

using testing::ZipfCluster;

constexpr double kTransportRatePerS = 5000;  // 25% of aggregate worker capacity

ZipfCluster TheoryCluster(AlgorithmKind algo, double z) {
  ZipfCluster cluster;
  cluster.algorithm = algo;
  cluster.workers = 40;
  cluster.sources = 16;
  cluster.messages = 40000;
  cluster.zipf_exponent = z;
  cluster.num_keys = 10000;
  cluster.seed = 21;
  return cluster;
}

TopologyOptions TheoryOptions() {
  TopologyOptions options;
  options.hash_seed = 3;
  options.seed = 21;
  options.bolt_service_ms = 2.0;  // 500/s per worker
  options.spout_service_ms = 1e3 / kTransportRatePerS;
  options.max_pending_per_spout = 60;
  return options;
}

Result<TopologyStats> RunCluster(
    const ZipfCluster& cluster,
    const TopologyOptions& options = TheoryOptions()) {
  return ExecuteTopology(cluster.Build(), options);
}

double MaxWorkerAvgLatency(const TopologyStats& stats) {
  return SummarizeTaskLatency(stats.components[1]).max_ms;
}

TEST(DspeTheoryTest, BottleneckFormulaPredictsKgThroughput) {
  // KG pins the hottest key (share p1) on one worker. When
  // p1 * transport_rate exceeds the worker service rate, throughput is
  // service_rate / p1.
  const double z = 2.0;
  const double p1 = ZipfTopProbability(z, 10000);  // ~0.60
  const TopologyOptions options = TheoryOptions();
  const double service_rate = 1000.0 / options.bolt_service_ms;  // per worker
  ASSERT_GT(p1 * kTransportRatePerS, service_rate)
      << "setup must make the hot worker the bottleneck";
  const double predicted = service_rate / p1;

  auto result =
      RunCluster(TheoryCluster(AlgorithmKind::kKeyGrouping, z), options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->throughput_per_s, predicted, 0.15 * predicted);
}

TEST(DspeTheoryTest, TransportFormulaPredictsBalancedThroughput) {
  // A balanced scheme leaves every worker far below saturation; throughput
  // equals the transport stage's rate.
  auto result =
      RunCluster(TheoryCluster(AlgorithmKind::kShuffleGrouping, 2.0));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->throughput_per_s, 5000.0, 300.0);
}

TEST(DspeTheoryTest, CreditWindowBoundsHotWorkerLatency) {
  // Under extreme skew, nearly the whole credit window piles up at the hot
  // worker; its queue is bounded by sources * max_pending, so the worst
  // per-worker average latency is about window * service_time.
  const ZipfCluster cluster = TheoryCluster(AlgorithmKind::kKeyGrouping, 2.0);
  const TopologyOptions options = TheoryOptions();
  auto result = RunCluster(cluster, options);
  ASSERT_TRUE(result.ok());
  const double window =
      static_cast<double>(cluster.sources) * options.max_pending_per_spout;
  const double ceiling = window * options.bolt_service_ms;
  EXPECT_LE(MaxWorkerAvgLatency(*result), ceiling * 1.05);
  EXPECT_GE(MaxWorkerAvgLatency(*result), 0.3 * ceiling)
      << "most of the window should sit at the hot worker";
}

TEST(DspeTheoryTest, ShrinkingCreditWindowShrinksTailLatency) {
  const ZipfCluster cluster = TheoryCluster(AlgorithmKind::kKeyGrouping, 2.0);
  TopologyOptions options = TheoryOptions();
  options.max_pending_per_spout = 60;
  auto wide = RunCluster(cluster, options);
  options.max_pending_per_spout = 15;
  auto narrow = RunCluster(cluster, options);
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(narrow.ok());
  EXPECT_LT(MaxWorkerAvgLatency(*narrow), 0.5 * MaxWorkerAvgLatency(*wide))
      << "backpressure caps queueing delay (Storm's max spout pending)";
  // Throughput at the bottleneck is window-independent once the hot worker
  // never idles.
  EXPECT_NEAR(narrow->throughput_per_s, wide->throughput_per_s,
              0.15 * wide->throughput_per_s);
}

TEST(DspeTheoryTest, BalancedLatencyEqualsWindowOverTransportRate) {
  // Balanced schemes park the whole credit window in the transport queue
  // (sources emit instantly whenever they hold credits), so steady-state
  // latency is window / transport_rate plus the worker service time — the
  // framework-buffering floor that dominates SG's latency in Fig. 14.
  const ZipfCluster cluster =
      TheoryCluster(AlgorithmKind::kShuffleGrouping, 1.0);
  const TopologyOptions options = TheoryOptions();
  auto result = RunCluster(cluster, options);
  ASSERT_TRUE(result.ok());
  const double window =
      static_cast<double>(cluster.sources) * options.max_pending_per_spout;
  const double predicted_ms =
      window / kTransportRatePerS * 1e3 + options.bolt_service_ms;
  EXPECT_GE(result->latency_p50_ms,
            1000.0 / kTransportRatePerS + options.bolt_service_ms);
  EXPECT_NEAR(result->latency_p50_ms, predicted_ms, 0.15 * predicted_ms);
}

}  // namespace
}  // namespace slb
