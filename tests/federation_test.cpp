// Tests for regional mapping (`sanmap --federate`): spec parsing, the
// region planner (partition_fabric), and the planner + ParallelMapper
// pipeline that maps each region and merges the partial maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "mapper/parallel_mapper.hpp"
#include "mapper/partition.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::mapper {
namespace {

using topo::NodeId;
using topo::Topology;

// -- region planning --------------------------------------------------------

TEST(RegionSpec, ParsesAutoMode) {
  const FederationSpec spec = parse_federation_spec("auto:4");
  EXPECT_TRUE(spec.auto_mode());
  EXPECT_EQ(spec.auto_regions, 4);
  EXPECT_TRUE(spec.anchor_host.empty());
}

TEST(RegionSpec, ParsesAutoModeWithAnchor) {
  const FederationSpec spec = parse_federation_spec("auto:3@P1.h0");
  EXPECT_TRUE(spec.auto_mode());
  EXPECT_EQ(spec.auto_regions, 3);
  EXPECT_EQ(spec.anchor_host, "P1.h0");
}

TEST(RegionSpec, ParsesExplicitSeedsWithOptionalNames) {
  const FederationSpec spec =
      parse_federation_spec("podA=P0.h0,P1.h0,podC=P2.h1");
  ASSERT_EQ(spec.regions.size(), 3u);
  EXPECT_FALSE(spec.auto_mode());
  EXPECT_EQ(spec.regions[0].name, "podA");
  EXPECT_EQ(spec.regions[0].mapper_host, "P0.h0");
  EXPECT_TRUE(spec.regions[1].name.empty());
  EXPECT_EQ(spec.regions[1].mapper_host, "P1.h0");
  EXPECT_EQ(spec.regions[2].name, "podC");
  EXPECT_EQ(spec.regions[2].mapper_host, "P2.h1");
}

TEST(RegionSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_federation_spec(""), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("auto"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("auto:zero"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("auto:0"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("a=h0,,b=h1"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("name="), std::runtime_error);
}

TEST(Partition, CoversEverySwitchOfTheComponentExactlyOnce) {
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 3;
  const RegionPlan plan = partition_fabric(t, spec);
  ASSERT_EQ(plan.regions.size(), 3u);
  EXPECT_EQ(plan.unassigned_switches, 0u);
  std::size_t assigned = 0;
  for (const Region& region : plan.regions) {
    assigned += region.switches.size();
    EXPECT_FALSE(region.name.empty());
    EXPECT_TRUE(t.is_host(region.mapper));
  }
  EXPECT_EQ(assigned, t.num_switches());
  // Pods meet at the spine, so boundaries must exist.
  EXPECT_GT(plan.boundary_switches, 0u);
}

TEST(Partition, IsDeterministic) {
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 4;
  const RegionPlan a = partition_fabric(t, spec);
  const RegionPlan b = partition_fabric(t, spec);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].mapper, b.regions[r].mapper);
    EXPECT_EQ(a.regions[r].switches, b.regions[r].switches);
    EXPECT_EQ(a.regions[r].depth, b.regions[r].depth);
  }
}

TEST(Partition, DepthCoversAssignedSwitchesAndTheirHostAnchors) {
  // Every assigned switch must fit in its region's ball together with its
  // nearest host — otherwise the local session cores it out and the merged
  // map has a hole. Spot-check the invariant on the multi-pod spine (the
  // host-free switches two hops from any host).
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 3;
  PartitionOptions options;
  options.overlap_margin = 0;
  const RegionPlan plan = partition_fabric(t, spec, options);
  for (const Region& region : plan.regions) {
    const std::vector<int> dist = topo::bfs_distances(t, region.mapper);
    for (const NodeId s : region.switches) {
      EXPECT_GE(region.depth, dist[s]) << t.name(s);
    }
  }
}

TEST(Partition, AutoModeClampsRegionCountToHostCount) {
  const Topology t = topo::star(3, 2);  // 6 hosts
  FederationSpec spec;
  spec.auto_regions = 100;
  const RegionPlan plan = partition_fabric(t, spec);
  EXPECT_EQ(plan.regions.size(), t.num_hosts());
}

TEST(Partition, RejectsUnknownHostsAndDuplicateSeeds) {
  const Topology t = topo::star(3, 2);
  {
    FederationSpec spec;
    spec.regions.push_back({"", "nonesuch"});
    EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
  }
  {
    FederationSpec spec;
    spec.auto_regions = 2;
    spec.anchor_host = "nonesuch";
    EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
  }
  {
    FederationSpec spec;
    spec.regions.push_back({"a", t.name(t.hosts().front())});
    spec.regions.push_back({"b", t.name(t.hosts().front())});
    EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
  }
}

TEST(Partition, RejectsSeedsInDisconnectedComponents) {
  // Two disjoint stars in one topology file.
  Topology t = topo::star(3, 2);
  const NodeId island_switch = t.add_switch("island");
  const NodeId island_host = t.add_host("island-host");
  t.connect_any(island_host, island_switch);
  FederationSpec spec;
  spec.regions.push_back({"main", t.name(t.hosts().front())});
  spec.regions.push_back({"island", "island-host"});
  EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
}

// -- regional mapping: planner + ParallelMapper ------------------------------

/// Plans `spec` over `fabric` and maps every region on one network, with the
/// configuration `sanmap --federate` uses.
ParallelMapResult map_regions(const Topology& fabric,
                              const FederationSpec& spec) {
  simnet::Network net(fabric);
  return ParallelMapper(net, regional_config(partition_fabric(fabric, spec)))
      .run();
}

FederationSpec auto_spec(const Topology& fabric, int regions) {
  FederationSpec spec;
  spec.auto_regions = regions;
  spec.anchor_host = fabric.name(fabric.hosts().front());
  return spec;
}

TEST(RegionalMapping, MergedMapMatchesMonolithicTruthOnMultiPod) {
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 3;
  const ParallelMapResult result = map_regions(t, spec);
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)))
      << result.map.num_hosts() << "h/" << result.map.num_switches() << "s/"
      << result.map.num_wires() << "w";
  EXPECT_GT(result.merge.merges, 0u);
  ASSERT_EQ(result.locals.size(), 3u);
  for (const ParallelMapResult::Local& local : result.locals) {
    EXPECT_GT(local.probes, 0u);
    EXPECT_GT(local.nodes, 0u);
  }
}

TEST(RegionalMapping, ExplicitSeedsOnTheNowCluster) {
  const Topology t = topo::now_cluster();
  const ParallelMapResult result =
      map_regions(t, parse_federation_spec("a=A.util,b=B.util,c=C.util"));
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  ASSERT_EQ(result.locals.size(), 3u);
  EXPECT_EQ(result.locals[0].mapper, *t.find_host("A.util"));
  EXPECT_EQ(result.locals[2].mapper, *t.find_host("C.util"));
}

TEST(RegionalMapping, ElapsedIsMaxOverRegionsPlusMergeCharge) {
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 4;
  const ParallelMapResult result = map_regions(t, spec);
  common::SimTime slowest{};
  std::uint64_t probes = 0;
  for (const ParallelMapResult::Local& local : result.locals) {
    slowest = std::max(slowest, local.elapsed);
    probes += local.probes;
  }
  EXPECT_EQ(result.total_probes, probes);
  EXPECT_EQ(result.elapsed,
            slowest + ParallelConfig{}.merge_cost_per_vertex *
                          static_cast<std::int64_t>(
                              result.merge.loaded_vertices));
}

TEST(RegionalMapping, SingleRegionEqualsBerkeley) {
  const Topology t = topo::star(4, 2);
  const ParallelMapResult result = map_regions(t, auto_spec(t, 1));
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  EXPECT_EQ(partition_fabric(t, auto_spec(t, 1)).boundary_switches, 0u);
}

TEST(RegionalMapping, PinnedProbesAndVirtualTime) {
  // Probe counts and virtual times of the window-8 regional sweep (overlap
  // 2, auto:k anchored at the first host). Any drift means a behavioural
  // change in the planner, the mapper, the probe engine or simnet.
  struct Row {
    int regions;
    std::uint64_t probes;
    std::int64_t elapsed_ns;
  };
  topo::MultiPodOptions pods;
  pods.pods = 8;
  pods.leaf_switches_per_pod = 4;
  pods.pod_roots = 1;
  pods.hosts_per_leaf = 2;
  pods.uplinks = 1;
  pods.spines = 2;
  topo::MegaFatTreeOptions banded;
  banded.leaf_switches = 266;
  const struct {
    Topology fabric;
    std::vector<Row> rows;
  } sweeps[] = {
      {topo::multi_pod(pods),
       {{1, 1337, 137601768}, {2, 2674, 139721768}, {4, 5348, 143961768},
        {8, 10696, 152441768}}},
      {topo::mega_fat_tree(banded),
       {{1, 54275, 5437877188},
        {2, 68604, 3521230580},
        {4, 81653, 2180268852},
        {8, 111159, 1861359840}}},
  };
  for (const auto& sweep : sweeps) {
    for (const Row& row : sweep.rows) {
      const ParallelMapResult result =
          map_regions(sweep.fabric, auto_spec(sweep.fabric, row.regions));
      EXPECT_EQ(result.total_probes, row.probes)
          << sweep.fabric.num_switches() << " switches, k=" << row.regions;
      EXPECT_EQ(result.elapsed.to_ns(), row.elapsed_ns)
          << sweep.fabric.num_switches() << " switches, k=" << row.regions;
    }
  }
}

TEST(RegionalMapping, OneRegionMapsAThousandSwitchFabricWhole) {
  // A single region over a 1,001-switch banded fat tree: the session needs
  // 6,650 switch explorations, so a fixed exploration cap would truncate
  // the merged map to a connected but partial fabric.
  topo::MegaFatTreeOptions banded;
  banded.leaf_switches = 533;
  const Topology t = topo::mega_fat_tree(banded);
  ASSERT_EQ(t.num_switches(), 1001u);
  const ParallelMapResult result = map_regions(t, auto_spec(t, 1));
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)))
      << result.map.num_switches() << " of " << t.num_switches()
      << " switches mapped";
}

}  // namespace
}  // namespace sanmap::mapper
