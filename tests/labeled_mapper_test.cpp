// Tests for the proof-form labeled mapper, and the cross-check between the
// executable specification (§3.1) and the production algorithm (§3.3):
// both must produce graphs isomorphic to N - F, hence to each other.
#include <gtest/gtest.h>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/labeled_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::mapper {
namespace {

using probe::ProbeEngine;
using simnet::CollisionModel;
using simnet::Network;
using topo::NodeId;
using topo::Topology;

MapResult run_labeled(const Topology& t, NodeId mapper,
                      CollisionModel collision) {
  Network net(t, collision);
  ProbeEngine engine(net, mapper);
  MapperConfig config;
  config.search_depth = topo::search_depth(t, mapper);
  return LabeledMapper(engine, config).run();
}

MapResult run_production(const Topology& t, NodeId mapper,
                         CollisionModel collision) {
  Network net(t, collision);
  ProbeEngine engine(net, mapper);
  MapperConfig config;
  config.search_depth = topo::search_depth(t, mapper);
  return BerkeleyMapper(engine, config).run();
}

TEST(LabeledMapper, MapsTheLineNetwork) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, s0, 2);
  t.connect(s0, 5, s1, 1);
  t.connect(s1, 4, h1, 0);
  const auto result = run_labeled(t, h0, CollisionModel::kCutThrough);
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
}

TEST(LabeledMapper, MapsAStarUnderBothCollisionModels) {
  const Topology t = topo::star(3, 2);
  for (const auto collision :
       {CollisionModel::kCircuit, CollisionModel::kCutThrough}) {
    const auto result = run_labeled(t, t.hosts().front(), collision);
    EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)))
        << to_string(collision);
  }
}

TEST(LabeledMapper, MapsARingWithReplicates) {
  // A ring forces replicates: both directions around reach every switch.
  const Topology t = topo::ring(4, 1);
  const auto result = run_labeled(t, t.hosts().front(),
                                  CollisionModel::kCutThrough);
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  EXPECT_GT(result.merges, 0u);
}

TEST(LabeledMapper, PrunesTheSeparatedSet) {
  common::Rng rng(5);
  const Topology t = topo::with_switch_tail(3, 4, 2, rng);
  const auto result = run_labeled(t, t.hosts().front(),
                                  CollisionModel::kCircuit);
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  EXPECT_GT(result.pruned, 0u);
}

TEST(LabeledMapper, UsesMoreProbesThanProduction) {
  // The naive proof form explores every replicate fully; the production
  // algorithm's interleaved merging is strictly cheaper.
  const Topology t = topo::star(3, 2);
  const NodeId mapper = t.hosts().front();
  const auto naive = run_labeled(t, mapper, CollisionModel::kCutThrough);
  const auto fast = run_production(t, mapper, CollisionModel::kCutThrough);
  EXPECT_TRUE(topo::isomorphic(naive.map, fast.map));
  EXPECT_GE(naive.probes.total(), fast.probes.total());
}

struct CrossCase {
  std::uint64_t seed;
  int switches;
  int hosts;
  int extra_links;
};

class CrossCheckTest : public ::testing::TestWithParam<CrossCase> {};

TEST_P(CrossCheckTest, SpecAndProductionAgree) {
  const CrossCase& param = GetParam();
  common::Rng rng(param.seed);
  const Topology t = topo::random_irregular(param.switches, param.hosts,
                                            param.extra_links, rng);
  for (const auto collision :
       {CollisionModel::kCircuit, CollisionModel::kCutThrough}) {
    const auto spec = run_labeled(t, t.hosts().front(), collision);
    const auto prod = run_production(t, t.hosts().front(), collision);
    // Theorem 1: both isomorphic to core(N), hence to each other.
    EXPECT_TRUE(topo::isomorphic(spec.map, topo::core(t)))
        << "labeled, " << to_string(collision) << ", seed " << param.seed;
    EXPECT_TRUE(topo::isomorphic(prod.map, spec.map))
        << "production vs labeled, " << to_string(collision) << ", seed "
        << param.seed;
  }
}

std::vector<CrossCase> cross_cases() {
  std::vector<CrossCase> cases;
  std::uint64_t seed = 42;
  for (int switches : {1, 2, 3, 4, 5}) {
    for (int extra : {0, 1, 2}) {
      cases.push_back(CrossCase{seed++, switches, 3, extra});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossCheckTest,
                         ::testing::ValuesIn(cross_cases()),
                         [](const auto& param_info) {
                           const CrossCase& c = param_info.param;
                           std::string name(1, 's');
                           name += std::to_string(c.switches) + "_x" +
                                   std::to_string(c.extra_links) + "_seed" +
                                   std::to_string(c.seed);
                           return name;
                         });

}  // namespace
}  // namespace sanmap::mapper
