// The DSPE cluster model (ExecuteTopology's shared emission stage feeding
// FIFO worker queues) on the Figs. 13-14 topology shape.

#include <gtest/gtest.h>

#include "zipf_cluster.h"

namespace slb {
namespace {

using testing::ZipfCluster;

ZipfCluster BaseCluster(AlgorithmKind algo) {
  ZipfCluster cluster;
  cluster.algorithm = algo;
  cluster.workers = 20;
  cluster.sources = 8;
  cluster.messages = 20000;
  cluster.zipf_exponent = 1.4;
  cluster.num_keys = 2000;
  cluster.seed = 11;
  return cluster;
}

TopologyOptions BaseOptions() {
  TopologyOptions options;
  options.hash_seed = 5;
  options.seed = 11;
  options.bolt_service_ms = 1.0;
  options.spout_service_ms = 1e3 / 4000;  // 4000/s of emission capacity
  options.max_pending_per_spout = 50;
  return options;
}

Result<TopologyStats> RunCluster(
    const ZipfCluster& cluster,
    const TopologyOptions& options = BaseOptions()) {
  return ExecuteTopology(cluster.Build(), options);
}

double MaxWorkerAvgLatency(const TopologyStats& stats) {
  return SummarizeTaskLatency(stats.components[1]).max_ms;
}

TEST(DspeSimTest, RejectsBadConfig) {
  ZipfCluster cluster = BaseCluster(AlgorithmKind::kShuffleGrouping);
  cluster.sources = 0;
  EXPECT_FALSE(RunCluster(cluster).ok());
  cluster = BaseCluster(AlgorithmKind::kShuffleGrouping);
  TopologyOptions options = BaseOptions();
  options.bolt_service_ms = 0;
  EXPECT_FALSE(RunCluster(cluster, options).ok());
  options = BaseOptions();
  options.max_pending_per_spout = 0;
  EXPECT_FALSE(RunCluster(cluster, options).ok());
}

TEST(DspeSimTest, CompletesEveryTuple) {
  auto result = RunCluster(BaseCluster(AlgorithmKind::kPkg));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->roots_acked, 20000u);
  EXPECT_GT(result->makespan_s, 0.0);
}

TEST(DspeSimTest, LatencyIsAtLeastServicePlusTransport) {
  auto result = RunCluster(BaseCluster(AlgorithmKind::kShuffleGrouping));
  ASSERT_TRUE(result.ok());
  // Every tuple pays transport (0.25ms) + worker service (1ms).
  EXPECT_GE(result->latency_p50_ms, 1.25 - 1e-9);
  EXPECT_GE(result->latency_max_ms, result->latency_p99_ms);
  EXPECT_GE(result->latency_p99_ms, result->latency_p50_ms);
}

TEST(DspeSimTest, BalancedThroughputIsTransportBound) {
  // 20 workers x 1000/s capacity >> 4000/s transport: SG must saturate the
  // transport stage.
  auto result = RunCluster(BaseCluster(AlgorithmKind::kShuffleGrouping));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->throughput_per_s, 4000.0, 250.0);
}

TEST(DspeSimTest, SkewCollapsesKeyGroupingThroughput) {
  ZipfCluster cluster = BaseCluster(AlgorithmKind::kKeyGrouping);
  cluster.zipf_exponent = 2.0;  // p1 ~ 0.6 of the stream on one worker
  auto kg = RunCluster(cluster);
  cluster.algorithm = AlgorithmKind::kShuffleGrouping;
  auto sg = RunCluster(cluster);
  ASSERT_TRUE(kg.ok());
  ASSERT_TRUE(sg.ok());
  // KG is bottlenecked by the hot worker: ~1000/0.6 ~= 1667/s.
  EXPECT_LT(kg->throughput_per_s, 2300.0);
  EXPECT_GT(sg->throughput_per_s, 1.5 * kg->throughput_per_s);
}

TEST(DspeSimTest, SkewInflatesKeyGroupingLatency) {
  ZipfCluster cluster = BaseCluster(AlgorithmKind::kKeyGrouping);
  cluster.zipf_exponent = 2.0;
  auto kg = RunCluster(cluster);
  cluster.algorithm = AlgorithmKind::kWChoices;
  auto wc = RunCluster(cluster);
  ASSERT_TRUE(kg.ok());
  ASSERT_TRUE(wc.ok());
  EXPECT_GT(MaxWorkerAvgLatency(*kg), 3 * MaxWorkerAvgLatency(*wc));
}

TEST(DspeSimTest, HeadAwareAlgorithmsMatchShuffleThroughput) {
  ZipfCluster cluster = BaseCluster(AlgorithmKind::kShuffleGrouping);
  cluster.zipf_exponent = 2.0;
  auto sg = RunCluster(cluster);
  cluster.algorithm = AlgorithmKind::kDChoices;
  auto dc = RunCluster(cluster);
  cluster.algorithm = AlgorithmKind::kWChoices;
  auto wc = RunCluster(cluster);
  ASSERT_TRUE(sg.ok());
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(wc.ok());
  EXPECT_GT(dc->throughput_per_s, 0.85 * sg->throughput_per_s);
  EXPECT_GT(wc->throughput_per_s, 0.85 * sg->throughput_per_s);
}

TEST(DspeSimTest, DeterministicForFixedSeed) {
  auto a = RunCluster(BaseCluster(AlgorithmKind::kPkg));
  auto b = RunCluster(BaseCluster(AlgorithmKind::kPkg));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->throughput_per_s, b->throughput_per_s);
  EXPECT_DOUBLE_EQ(a->latency_p99_ms, b->latency_p99_ms);
}

TEST(DspeSimTest, WorkerLatencyPercentilesOrdered) {
  auto result = RunCluster(BaseCluster(AlgorithmKind::kPkg));
  ASSERT_TRUE(result.ok());
  const TaskLatencySummary workers =
      SummarizeTaskLatency(result->components[1]);
  EXPECT_LE(workers.p50_ms, workers.p95_ms);
  EXPECT_LE(workers.p95_ms, workers.p99_ms);
  EXPECT_LE(workers.p99_ms, workers.max_ms + 1e-9);
}

TEST(DspeSimTest, SmallRunSingleSourceSingleWorker) {
  ZipfCluster cluster = BaseCluster(AlgorithmKind::kShuffleGrouping);
  cluster.sources = 1;
  cluster.workers = 1;
  cluster.messages = 100;
  auto result = RunCluster(cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->roots_acked, 100u);
  // Single worker at 1ms/tuple: makespan >= 0.1s.
  EXPECT_GE(result->makespan_s, 0.099);
}

}  // namespace
}  // namespace slb
