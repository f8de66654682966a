// Golden routing digests: pins the exact worker sequence every head-aware
// and greedy partitioner produces on a fixed stream.
//
// Each config routes 400k messages through one partitioner and folds every
// Route() output into an FNV-1a digest. The stream is built to reach every
// state transition a routing-path cache or fast path could get wrong:
//   * a warm-up phase, where the doubling reoptimize cadence runs often;
//   * Rescale(n + 3), then Rescale(n - 3), mid-stream (new hash family, new
//     load vector length, forced reoptimize);
//   * a drift phase that moves the head onto fresh keys at a different
//     skew, so D-Choices' d changes across reoptimizes.
// Both the count signal and the kCost signal are covered. The constants were
// recorded before any routing-path optimisation; a mismatch means a routing
// decision changed, not that the constant needs refreshing.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "slb/common/rng.h"
#include "slb/core/partitioner.h"
#include "slb/workload/cost_model.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

constexpr uint64_t kNumKeys = 10000;
constexpr size_t kWarmup = 150000;    // at n
constexpr size_t kScaledOut = 80000;  // at n + 3
constexpr size_t kScaledIn = 70000;   // at n - 3
constexpr size_t kDrift = 100000;     // at n - 3, head on fresh keys
constexpr size_t kTotal = kWarmup + kScaledOut + kScaledIn + kDrift;

struct GoldenConfig {
  AlgorithmKind kind;
  uint32_t n;
  double z;
  BalanceSignal signal;
  uint64_t digest;
};

uint64_t FnvStep(uint64_t h, uint32_t worker) {
  for (int byte = 0; byte < 4; ++byte) {
    h ^= (worker >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The drift phase draws from the other skew over a disjoint key range, so
// the old head fades from the sketch while a new one with a different
// profile takes over.
std::vector<uint64_t> MakeStream(double z) {
  const ZipfDistribution steady(z, kNumKeys);
  const ZipfDistribution drifted(z < 1.7 ? 2.0 : 1.4, kNumKeys);
  Rng rng(20160516);
  std::vector<uint64_t> keys;
  keys.reserve(kTotal);
  for (size_t i = 0; i < kTotal - kDrift; ++i) keys.push_back(steady.Sample(&rng));
  for (size_t i = 0; i < kDrift; ++i) {
    keys.push_back(kNumKeys + drifted.Sample(&rng));
  }
  return keys;
}

uint64_t RouteDigest(const GoldenConfig& config) {
  PartitionerOptions options;
  options.num_workers = config.n;
  options.hash_seed = 42;
  options.fixed_d = 5;
  options.balance_on = config.signal;
  if (config.signal != BalanceSignal::kCount) {
    CostModelOptions cost;
    cost.num_keys = 2 * kNumKeys;
    cost.seed = 7;
    auto model = MakeCostModel("pareto", cost);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    options.cost_model = std::move(model.value());
  }
  auto created = CreatePartitioner(config.kind, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  StreamPartitioner& partitioner = *created.value();

  const std::vector<uint64_t> keys = MakeStream(config.z);
  uint64_t digest = 0xcbf29ce484222325ULL;
  uint32_t workers = config.n;
  std::set<uint32_t> head_d;  // d values head keys were routed under
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == kWarmup) {
      workers = config.n + 3;
      EXPECT_TRUE(partitioner.Rescale(workers).ok());
    } else if (i == kWarmup + kScaledOut) {
      workers = config.n - 3;
      EXPECT_TRUE(partitioner.Rescale(workers).ok());
    }
    const uint32_t worker = partitioner.Route(keys[i]);
    if (worker >= workers) {
      ADD_FAILURE() << "worker " << worker << " out of range at message " << i;
      return 0;
    }
    digest = FnvStep(digest, worker);
    if (partitioner.last_was_head()) head_d.insert(partitioner.head_choices());
  }
  if (config.kind == AlgorithmKind::kDChoices) {
    // The stream must make D-Choices re-derive d, or the digest would not
    // cover a head policy that changes between reoptimizes.
    EXPECT_GE(head_d.size(), 3u) << "d never changed";
  }
  return digest;
}

std::string ConfigName(const GoldenConfig& config) {
  std::string name = AlgorithmKindName(config.kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += "_n" + std::to_string(config.n);
  name += config.z < 1.7 ? "_z14" : "_z20";
  name += config.signal == BalanceSignal::kCount ? "_count" : "_cost";
  return name;
}

// Readable (and padding-free) parameter text in test listings.
void PrintTo(const GoldenConfig& config, std::ostream* os) { *os << ConfigName(config); }

class RoutingGoldenTest : public testing::TestWithParam<GoldenConfig> {};

TEST_P(RoutingGoldenTest, DigestMatchesRecordedRouting) {
  const GoldenConfig& config = GetParam();
  const uint64_t digest = RouteDigest(config);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, config.digest) << "routing changed; digest is now " << hex;
}

constexpr AlgorithmKind kPkg = AlgorithmKind::kPkg;
constexpr AlgorithmKind kDC = AlgorithmKind::kDChoices;
constexpr AlgorithmKind kWC = AlgorithmKind::kWChoices;
constexpr AlgorithmKind kFixed = AlgorithmKind::kFixedDChoices;
constexpr AlgorithmKind kGreedy = AlgorithmKind::kGreedyD;
constexpr AlgorithmKind kRR = AlgorithmKind::kRoundRobinHead;
constexpr BalanceSignal kCount = BalanceSignal::kCount;
constexpr BalanceSignal kCost = BalanceSignal::kCost;

// clang-format off
const GoldenConfig kGolden[] = {
    {kPkg, 8, 1.4, kCount, 0xe6ae7d7df20181c3ULL},
    {kPkg, 8, 1.4, kCost, 0x9300bf73dcb8ee1eULL},
    {kPkg, 8, 2.0, kCount, 0xf39cb4f6775cfd50ULL},
    {kPkg, 8, 2.0, kCost, 0x61ea0c3ef9509839ULL},
    {kPkg, 64, 1.4, kCount, 0x4ae5df2472fcf78bULL},
    {kPkg, 64, 1.4, kCost, 0x1fbb82e2e1eaf147ULL},
    {kPkg, 64, 2.0, kCount, 0x1e34c6d0854a2506ULL},
    {kPkg, 64, 2.0, kCost, 0xcdd0c5c7ba8b441fULL},
    {kPkg, 100, 1.4, kCount, 0xaed5670eaef6214aULL},
    {kPkg, 100, 1.4, kCost, 0x7919db04f1ca5dddULL},
    {kPkg, 100, 2.0, kCount, 0x7fdd9fc8248f011eULL},
    {kPkg, 100, 2.0, kCost, 0xe66475c2e07f6cbdULL},
    {kDC, 8, 1.4, kCount, 0x6ca6ecf63a70bf86ULL},
    {kDC, 8, 1.4, kCost, 0x4e9fc7eb0ac22c84ULL},
    {kDC, 8, 2.0, kCount, 0xea0093ad09f2f75eULL},
    {kDC, 8, 2.0, kCost, 0xfd11227a048fc16dULL},
    {kDC, 64, 1.4, kCount, 0x0a4e6f4670fea09fULL},
    {kDC, 64, 1.4, kCost, 0x329ba4c02d4796cfULL},
    {kDC, 64, 2.0, kCount, 0x83ecd9fa4f8efb04ULL},
    {kDC, 64, 2.0, kCost, 0x28d3d6f2cfd4d857ULL},
    {kDC, 100, 1.4, kCount, 0xe5455621e3e4af11ULL},
    {kDC, 100, 1.4, kCost, 0x4d57ffd8e01fd243ULL},
    {kDC, 100, 2.0, kCount, 0x1341b059d59be35cULL},
    {kDC, 100, 2.0, kCost, 0x2e3d31a21bb0afacULL},
    {kWC, 8, 1.4, kCount, 0x0eae8e5a239a5c8fULL},
    {kWC, 8, 1.4, kCost, 0x7b1ec0d11c5b95d5ULL},
    {kWC, 8, 2.0, kCount, 0xd2095a9cf848637eULL},
    {kWC, 8, 2.0, kCost, 0x76605b70dbe92044ULL},
    {kWC, 64, 1.4, kCount, 0xe3e15a7e6f95fd9cULL},
    {kWC, 64, 1.4, kCost, 0xcb5c9bf3cc15eed4ULL},
    {kWC, 64, 2.0, kCount, 0xb4c84651a8b2abdbULL},
    {kWC, 64, 2.0, kCost, 0x0ca21dee317e92feULL},
    {kWC, 100, 1.4, kCount, 0x9bce158029df8a0fULL},
    {kWC, 100, 1.4, kCost, 0xf81552700c0c1ba3ULL},
    {kWC, 100, 2.0, kCount, 0xe634dc6d8b60b7acULL},
    {kWC, 100, 2.0, kCost, 0xa4b9cf2605a4b06cULL},
    {kFixed, 8, 1.4, kCount, 0xfca691e2e0b04360ULL},
    {kFixed, 8, 1.4, kCost, 0x65b5dfcc3d905506ULL},
    {kFixed, 8, 2.0, kCount, 0xde1cbc6f1fdc9427ULL},
    {kFixed, 8, 2.0, kCost, 0xa652d7de6b236078ULL},
    {kFixed, 64, 1.4, kCount, 0x0839d48e1833b347ULL},
    {kFixed, 64, 1.4, kCost, 0xa3de6877d162a972ULL},
    {kFixed, 64, 2.0, kCount, 0x212c6e899484b85fULL},
    {kFixed, 64, 2.0, kCost, 0x1fa4be7b23a4c005ULL},
    {kFixed, 100, 1.4, kCount, 0xa88cb16c350d783eULL},
    {kFixed, 100, 1.4, kCost, 0xbfaf2ece25ba3484ULL},
    {kFixed, 100, 2.0, kCount, 0x30232fe97d1d8100ULL},
    {kFixed, 100, 2.0, kCost, 0x6803674fa56f4c7cULL},
    {kGreedy, 8, 1.4, kCount, 0x92e8b7a5439cb5a2ULL},
    {kGreedy, 8, 1.4, kCost, 0x71bb7d2b4d9823c2ULL},
    {kGreedy, 8, 2.0, kCount, 0x696cb292d07d244aULL},
    {kGreedy, 8, 2.0, kCost, 0x711c31e1aa74c0f5ULL},
    {kGreedy, 64, 1.4, kCount, 0x72a9af280234f789ULL},
    {kGreedy, 64, 1.4, kCost, 0xaaa7071c22e192e7ULL},
    {kGreedy, 64, 2.0, kCount, 0xa64e4f193b083c9fULL},
    {kGreedy, 64, 2.0, kCost, 0xb506873f97780403ULL},
    {kGreedy, 100, 1.4, kCount, 0x0986662dcda8fc72ULL},
    {kGreedy, 100, 1.4, kCost, 0x47ee95dc14c31c8bULL},
    {kGreedy, 100, 2.0, kCount, 0x9dca2616b01325daULL},
    {kGreedy, 100, 2.0, kCost, 0x9ac5721d50841064ULL},
    {kRR, 8, 1.4, kCount, 0x3d7ccd75c54ea7b3ULL},
    {kRR, 8, 1.4, kCost, 0xb841d4cb44ae8631ULL},
    {kRR, 8, 2.0, kCount, 0xd4760054d42fd243ULL},
    {kRR, 8, 2.0, kCost, 0xc0aaa88cb9b8d5b3ULL},
    {kRR, 64, 1.4, kCount, 0x7389e7e15adee3f4ULL},
    {kRR, 64, 1.4, kCost, 0x7eb46dbbbaae98b5ULL},
    {kRR, 64, 2.0, kCount, 0x826a7d44099c56d3ULL},
    {kRR, 64, 2.0, kCost, 0x85a1a5a91bb72701ULL},
    {kRR, 100, 1.4, kCount, 0x65e49941be317ddaULL},
    {kRR, 100, 1.4, kCost, 0x857fa280e203a75aULL},
    {kRR, 100, 2.0, kCount, 0x82cf9c3c0a73d7b8ULL},
    {kRR, 100, 2.0, kCost, 0x124664fa4eb372abULL},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, RoutingGoldenTest, testing::ValuesIn(kGolden),
    [](const testing::TestParamInfo<GoldenConfig>& info) { return ConfigName(info.param); });

}  // namespace
}  // namespace slb
