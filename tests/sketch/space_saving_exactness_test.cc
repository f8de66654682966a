// SpaceSaving exactness: pins the full observable behaviour of the
// stream-summary — every UpdateAndEstimate() return, the final Counters()
// (key, count, error) and min_count() — as digests on fixed streams, and
// drives both increment paths of the bucket list directly.
//
// The digests were recorded before the in-place bucket bump was added; they
// hold exactly as long as every estimate and the eviction order stay the
// same, whatever the bucket layout underneath.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "slb/common/rng.h"
#include "slb/sketch/space_saving.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

uint64_t FnvStep(uint64_t h, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// 1M updates over a 1M-key Zipf(1.1) universe: heavy eviction churn at every
// capacity, with a stable head on top.
std::vector<uint64_t> ZipfStream() {
  const ZipfDistribution zipf(1.1, 1000000);
  Rng rng(31);
  std::vector<uint64_t> keys(1000000);
  for (auto& key : keys) key = zipf.Sample(&rng);
  return keys;
}

// The stream of SpaceSavingTest.OverestimateInvariantOnAdversarialStream:
// a few hot keys under rotating churn.
std::vector<uint64_t> AdversarialStream() {
  Rng rng(5);
  std::vector<uint64_t> keys(20000);
  for (auto& key : keys) {
    key = rng.NextBool(0.3) ? rng.NextBounded(5) : 1000 + rng.NextBounded(2000);
  }
  return keys;
}

struct Digests {
  uint64_t updates;
  uint64_t summary;  // final Counters() and min_count()
};

Digests Run(const std::vector<uint64_t>& keys, size_t capacity) {
  SpaceSaving ss(capacity);
  Digests d{0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL};
  for (uint64_t key : keys) d.updates = FnvStep(d.updates, ss.UpdateAndEstimate(key));
  for (const HeavyKey& hk : ss.Counters()) {
    d.summary = FnvStep(d.summary, hk.key);
    d.summary = FnvStep(d.summary, hk.count);
    d.summary = FnvStep(d.summary, hk.error);
  }
  d.summary = FnvStep(d.summary, ss.min_count());
  return d;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Golden {
  size_t capacity;
  Digests digests;
};

void ExpectGolden(const std::vector<uint64_t>& keys, const Golden* golden,
                  size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const Digests got = Run(keys, golden[i].capacity);
    EXPECT_EQ(got.updates, golden[i].digests.updates)
        << "capacity " << golden[i].capacity << ": estimates now " << Hex(got.updates);
    EXPECT_EQ(got.summary, golden[i].digests.summary)
        << "capacity " << golden[i].capacity << ": summary now " << Hex(got.summary);
  }
}

TEST(SpaceSavingExactnessTest, ZipfStreamDigests) {
  const Golden golden[] = {
      {1, {0x1ca273a2b2cf14a8ULL, 0x9320b305472b95aaULL}},
      {64, {0xe58330e6e84d095eULL, 0x6c25230f50cf9f58ULL}},
      {640, {0xfbffbaf7b101b587ULL, 0x05587d5b35a2ca3dULL}},
  };
  ExpectGolden(ZipfStream(), golden, std::size(golden));
}

TEST(SpaceSavingExactnessTest, AdversarialStreamDigests) {
  const Golden golden[] = {
      {1, {0xdb8922334269110bULL, 0x47d6892d9476dce3ULL}},
      {64, {0x9580d5458cd4e6e6ULL, 0x62f3432cac95c134ULL}},
      {640, {0x8d84a496cd788b61ULL, 0x81bff392975c143fULL}},
  };
  ExpectGolden(AdversarialStream(), golden, std::size(golden));
}

// Counters() sorted by descending count, ties by ascending key.
std::vector<std::pair<uint64_t, uint64_t>> KeyCounts(const SpaceSaving& ss) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const HeavyKey& hk : ss.Counters()) out.emplace_back(hk.key, hk.count);
  return out;
}

using KC = std::vector<std::pair<uint64_t, uint64_t>>;

TEST(SpaceSavingExactnessTest, IncrementPathsKeepBucketOrder) {
  SpaceSaving ss(3);
  // Lone counter with no bucket above it: bumped in place, 1 -> 2 -> 3.
  ss.UpdateAndEstimate(10);
  EXPECT_EQ(ss.UpdateAndEstimate(10), 2u);
  EXPECT_EQ(ss.UpdateAndEstimate(10), 3u);
  EXPECT_EQ(ss.min_count(), 3u);
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 3}}));

  // A new key opens bucket 1 below; bumping it (alone, next bucket is 3,
  // not 2) happens in place and must stay below key 10's bucket.
  ss.UpdateAndEstimate(20);
  EXPECT_EQ(ss.min_count(), 1u);
  EXPECT_EQ(ss.UpdateAndEstimate(20), 2u);
  EXPECT_EQ(ss.min_count(), 2u);
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 3}, {20, 2}}));

  // Lone counter whose next bucket is count + 1: merges into it, and the
  // emptied bucket leaves the list (min moves up to 3).
  EXPECT_EQ(ss.UpdateAndEstimate(20), 3u);
  EXPECT_EQ(ss.min_count(), 3u);
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 3}, {20, 3}}));

  // Counter sharing its bucket: moves out to a fresh count + 1 bucket.
  EXPECT_EQ(ss.UpdateAndEstimate(10), 4u);
  EXPECT_EQ(ss.min_count(), 3u);
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 4}, {20, 3}}));

  // Lone counter in the middle of the list with a gap above: 1 -> 2 in
  // place, between nothing below and 3 above.
  ss.UpdateAndEstimate(30);
  EXPECT_EQ(ss.UpdateAndEstimate(30), 2u);
  EXPECT_EQ(ss.min_count(), 2u);
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 4}, {20, 3}, {30, 2}}));

  // Full: a new key evicts the minimum (key 30, count 2) and is charged its
  // count as error; the in-place-bumped bucket is the one eviction reads.
  EXPECT_EQ(ss.UpdateAndEstimate(40), 3u);
  EXPECT_EQ(ss.GuaranteedCount(40), 1u);
  EXPECT_EQ(ss.Estimate(30), ss.min_count());
  EXPECT_EQ(ss.min_count(), 3u);
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 4}, {20, 3}, {40, 3}}));

  // Two counters at 3 (20 and 40): eviction takes the bucket head, which is
  // the counter that entered the bucket last (40).
  EXPECT_EQ(ss.UpdateAndEstimate(50), 4u);
  EXPECT_EQ(ss.Estimate(40), 3u) << "40 evicted, reported at the min bound";
  EXPECT_EQ(ss.GuaranteedCount(20), 3u) << "20 still monitored";
  EXPECT_EQ(KeyCounts(ss), (KC{{10, 4}, {50, 4}, {20, 3}}));
}

}  // namespace
}  // namespace slb
