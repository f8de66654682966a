// The cluster topology the DSPE model tests run on ExecuteTopology: `sources`
// spouts, each drawing its share of `messages` independently from
// Zipf(zipf_exponent, num_keys), feeding `workers` CountingBolts over one
// `algorithm` edge. Service times, the credit window and the hash seed come
// from the TopologyOptions passed alongside.

#pragma once

#include <cstdint>
#include <memory>

#include "slb/common/rng.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/workload/zipf.h"

namespace slb::testing {

struct ZipfCluster {
  AlgorithmKind algorithm = AlgorithmKind::kShuffleGrouping;
  uint32_t sources = 8;
  uint32_t workers = 20;
  uint64_t messages = 20000;
  double zipf_exponent = 1.4;
  uint64_t num_keys = 2000;
  uint64_t seed = 11;  // spout i draws from Rng(seed + 1000003 * i)

  TopologyBuilder::Topology Build() const {
    class ZipfSpout final : public Spout {
     public:
      ZipfSpout(double z, uint64_t keys, uint64_t count, uint64_t seed)
          : zipf_(z, keys), remaining_(count), rng_(seed) {}
      bool NextTuple(TopologyTuple* out) override {
        if (remaining_ == 0) return false;
        --remaining_;
        out->key = zipf_.Sample(&rng_);
        out->value = 1;
        return true;
      }

     private:
      ZipfDistribution zipf_;
      uint64_t remaining_;
      Rng rng_;
    };
    const ZipfCluster c = *this;
    TopologyBuilder builder;
    builder.AddSpout(
        "sources",
        [c](uint32_t i) {
          // Split the total as evenly as possible.
          const uint64_t count =
              c.messages / c.sources + (i < c.messages % c.sources ? 1 : 0);
          return std::make_unique<ZipfSpout>(c.zipf_exponent, c.num_keys, count,
                                             c.seed + 1000003ULL * i);
        },
        sources);
    builder
        .AddBolt("workers",
                 [](uint32_t) { return std::make_unique<CountingBolt>(); },
                 workers)
        .Input("sources", Grouping{algorithm, {}});
    return builder.Build();
  }
};

}  // namespace slb::testing
