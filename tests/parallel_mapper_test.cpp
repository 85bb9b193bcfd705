// Tests for §6 parallel mapping: partial-map merging and the multi-mapper
// pipeline. Regional mapping (region planner + ParallelMapper) is covered
// in federation_test.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/parallel_mapper.hpp"
#include "mapper/partial_merge.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::mapper {
namespace {

using topo::NodeId;
using topo::Topology;

/// Builds the ground-truth partial map covering node set `keep` of `t`
/// (nodes outside are dropped, as are wires touching them), with each
/// switch's ports shifted by a per-switch offset to mimic a mapper's
/// offset-oblivious output.
Topology slice(const Topology& t, const std::vector<NodeId>& keep,
               common::Rng& rng) {
  Topology out;
  std::vector<NodeId> remap(t.node_capacity(), topo::kInvalidNode);
  std::vector<topo::Port> shift(t.node_capacity(), 0);
  for (const NodeId n : keep) {
    if (t.is_host(n)) {
      remap[n] = out.add_host(t.name(n));
    } else {
      remap[n] = out.add_switch();
      // Feasible shift range given this slice's occupied ports.
      topo::Port lo = topo::kSwitchPorts;
      topo::Port hi = -1;
      for (topo::Port p = 0; p < t.port_count(n); ++p) {
        const auto far = t.peer(n, p);
        if (far && remap.size() > far->node) {
          lo = std::min(lo, p);
          hi = std::max(hi, p);
        }
      }
      if (hi >= 0) {
        shift[n] = static_cast<topo::Port>(
            rng.range(-lo, topo::kSwitchPorts - 1 - hi));
      }
    }
  }
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (remap[wire.a.node] == topo::kInvalidNode ||
        remap[wire.b.node] == topo::kInvalidNode) {
      continue;
    }
    out.connect(remap[wire.a.node], wire.a.port + shift[wire.a.node],
                remap[wire.b.node], wire.b.port + shift[wire.b.node]);
  }
  return out;
}

TEST(PartialMerge, TwoOverlappingSlicesFuseExactly) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  common::Rng rng(5);
  // Slice by leaf parity, both including all mid/root switches and their
  // hosts — a generous overlap.
  std::vector<NodeId> left;
  std::vector<NodeId> right;
  for (const NodeId n : t.nodes()) {
    const std::string& name = t.name(n);
    const bool is_leafish = name.find("leaf") != std::string::npos;
    if (!is_leafish && t.is_switch(n)) {
      left.push_back(n);
      right.push_back(n);
      continue;
    }
    // Hosts go with their leaf; leaves split by index parity.
    NodeId leaf = n;
    if (t.is_host(n)) {
      const auto far = t.peer(n, 0);
      ASSERT_TRUE(far.has_value());
      leaf = far->node;
    }
    const std::string& leaf_name = t.name(leaf);
    if (leaf_name.find("leaf") == std::string::npos) {
      left.push_back(n);  // the utility host on a root
      right.push_back(n);
      continue;
    }
    const int index = leaf_name.back() - '0';
    (index % 2 == 0 ? left : right).push_back(n);
  }
  const Topology a = slice(t, left, rng);
  const Topology b = slice(t, right, rng);
  EXPECT_LT(a.num_nodes(), t.num_nodes());
  EXPECT_LT(b.num_nodes(), t.num_nodes());

  PartialMergeStats stats;
  const Topology merged = merge_partial_maps({a, b}, &stats);
  EXPECT_TRUE(topo::isomorphic(merged, t));
  EXPECT_GT(stats.merges, 0u);
}

TEST(PartialMerge, SinglePartIsIdentity) {
  const Topology t = topo::star(3, 2);
  common::Rng rng(9);
  const Topology part = slice(t, t.nodes(), rng);
  EXPECT_TRUE(topo::isomorphic(merge_partial_maps({part}), t));
}

TEST(PartialMerge, DisjointRegionsStaySeparate) {
  // Two slices sharing no hosts: the merge cannot identify their shared
  // switches and faithfully keeps both copies.
  Topology t;
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(s0, 0, s1, 0);
  const NodeId ha = t.add_host("a");
  t.connect(ha, 0, s0, 1);
  const NodeId hb = t.add_host("b");
  t.connect(hb, 0, s1, 1);
  common::Rng rng(3);
  const Topology left = slice(t, {s0, s1, ha}, rng);
  const Topology right = slice(t, {s0, s1, hb}, rng);
  const Topology merged = merge_partial_maps({left, right});
  // Both parts kept their own copies of the two switches.
  EXPECT_EQ(merged.num_hosts(), 2u);
  EXPECT_EQ(merged.num_switches(), 4u);
}

TEST(PartialMerge, ContradictoryPartsRejected) {
  // The same host on two different switches (stale vs fresh view of a
  // recabled network) must be flagged, not silently merged.
  Topology stale;
  {
    const NodeId s0 = stale.add_switch();
    const NodeId s1 = stale.add_switch();
    stale.connect(s0, 0, s1, 0);
    const NodeId h = stale.add_host("h");
    stale.connect(h, 0, s0, 1);
    const NodeId anchor = stale.add_host("anchor0");
    stale.connect(anchor, 0, s0, 2);
    const NodeId anchor1 = stale.add_host("anchor1");
    stale.connect(anchor1, 0, s1, 2);
  }
  Topology fresh;
  {
    const NodeId s0 = fresh.add_switch();
    const NodeId s1 = fresh.add_switch();
    fresh.connect(s0, 0, s1, 0);
    const NodeId h = fresh.add_host("h");
    fresh.connect(h, 0, s1, 1);  // moved to the other switch
    const NodeId anchor = fresh.add_host("anchor0");
    fresh.connect(anchor, 0, s0, 2);
    const NodeId anchor1 = fresh.add_host("anchor1");
    fresh.connect(anchor1, 0, s1, 2);
  }
  EXPECT_THROW((void)merge_partial_maps({stale, fresh}),
               common::CheckFailure);
}

TEST(PartialMerge, BoundarySwitchSeenByThreeRegionsFusesToOne) {
  // A hub switch on the boundary of three regions: every part observes it
  // (anchored by the shared hub host), so the cascade must collapse the
  // three copies into one — the n-way case the federation boundary
  // resolver leans on, not just the pairwise merge.
  Topology t;
  const NodeId hub = t.add_switch("hub");
  const NodeId hub_host = t.add_host("hub-host");
  t.connect(hub_host, 0, hub, 0);
  std::vector<NodeId> leaves;
  std::vector<NodeId> leaf_hosts;
  for (int i = 0; i < 3; ++i) {
    const NodeId leaf =
        t.add_switch(std::string("leaf").append(std::to_string(i)));
    t.connect(leaf, 0, hub, static_cast<topo::Port>(1 + i));
    leaves.push_back(leaf);
    leaf_hosts.push_back(
        t.add_host(std::string("h").append(std::to_string(i))));
    t.connect(leaf_hosts.back(), 0, leaf, 1);
  }

  common::Rng rng(11);
  std::vector<Topology> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(
        slice(t, {hub, hub_host, leaves[static_cast<std::size_t>(i)],
                  leaf_hosts[static_cast<std::size_t>(i)]},
              rng));
  }
  PartialMergeStats stats;
  const Topology merged = merge_partial_maps(parts, &stats);
  EXPECT_TRUE(topo::isomorphic(merged, t))
      << merged.num_hosts() << "h/" << merged.num_switches() << "s";
  EXPECT_EQ(merged.num_switches(), 4u);  // three hub copies became one
  EXPECT_GT(stats.merges, 0u);
}

TEST(PartialMerge, RegionWhoseEntireMapIsBoundaryDissolvesIntoNeighbors) {
  // A middle region that owns nothing: every switch it mapped is also
  // mapped by a neighbor. The merge must dissolve it completely instead of
  // duplicating the shared switches.
  Topology t;
  const NodeId s0 = t.add_switch("s0");
  const NodeId s1 = t.add_switch("s1");
  t.connect(s0, 0, s1, 0);
  const NodeId h0 = t.add_host("h0");
  t.connect(h0, 0, s0, 1);
  const NodeId h1 = t.add_host("h1");
  t.connect(h1, 0, s1, 1);

  common::Rng rng(17);
  const Topology left = slice(t, {s0, h0, s1}, rng);
  const Topology middle = slice(t, {s0, s1, h0, h1}, rng);  // all boundary
  const Topology right = slice(t, {s1, h1, s0}, rng);
  PartialMergeStats stats;
  const Topology merged = merge_partial_maps({left, middle, right}, &stats);
  EXPECT_TRUE(topo::isomorphic(merged, t));
  EXPECT_EQ(merged.num_switches(), 2u);
  EXPECT_GT(stats.merges, 0u);
}

TEST(PartialMerge, EmptyPartIsIdentityElement) {
  // A region that mapped nothing (empty fabric slice, exhausted budget)
  // contributes no evidence and must not perturb the merge.
  const Topology t = topo::star(3, 2);
  common::Rng rng(23);
  const Topology part = slice(t, t.nodes(), rng);
  PartialMergeStats stats;
  const Topology merged =
      merge_partial_maps({Topology{}, part, Topology{}}, &stats);
  EXPECT_TRUE(topo::isomorphic(merged, t));
  EXPECT_EQ(stats.loaded_vertices, part.num_nodes());
}

TEST(ParallelMapper, ThreeMappersCoverTheNow) {
  const Topology t = topo::now_cluster();
  simnet::Network net(t);
  ParallelConfig config;
  // One mapper per subcluster (the utility hosts) plus two leaf hosts for
  // extra overlap.
  for (const char* host : {"C.util", "A.util", "B.util", "C.h0", "B.h17"}) {
    config.mappers.push_back({*t.find_host(host), 8});
  }
  const auto result = ParallelMapper(net, config).run();
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)))
      << result.map.num_hosts() << "h/" << result.map.num_switches() << "s/"
      << result.map.num_wires() << "w";
  EXPECT_EQ(result.locals.size(), 5u);
}

TEST(ParallelMapper, ParallelPhaseIsFasterOnALargeDiameterNetwork) {
  // Locality pays when local balls are genuinely smaller than the network:
  // on the NOW (diameter 8) a depth-8 "local" ball is the whole fabric and
  // parallelism saves nothing, but on a 30-switch ring (diameter ~16),
  // ten spaced mappers with small balls beat one global mapper soundly.
  const Topology t = topo::ring(30, 1);
  const NodeId solo_host = t.hosts().front();

  simnet::Network net(t);
  probe::ProbeEngine engine(net, solo_host);
  MapperConfig solo_config;
  solo_config.search_depth = topo::search_depth(t, solo_host);
  const auto solo = BerkeleyMapper(engine, solo_config).run();

  simnet::Network net2(t);
  ParallelConfig config;
  const auto hosts = t.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 3) {
    config.mappers.push_back({hosts[i], 6});
  }
  const auto parallel = ParallelMapper(net2, config).run();

  EXPECT_TRUE(topo::isomorphic(parallel.map, solo.map));
  // The parallel phase's wall clock (max of locals + merge) beats the solo
  // mapper even though total network load is higher.
  EXPECT_LT(parallel.elapsed, solo.elapsed);
}

TEST(ParallelMapper, InsufficientDepthMissesTheMiddle) {
  const Topology t = topo::now_cluster();
  simnet::Network net(t);
  ParallelConfig config;
  // Balls far too small to cover the fabric.
  for (const char* host : {"C.util", "A.util", "B.util"}) {
    config.mappers.push_back({*t.find_host(host), 1});
  }
  const auto result = ParallelMapper(net, config).run();
  EXPECT_LT(result.map.num_nodes(), t.num_nodes());
}

TEST(ParallelMapper, SingleMapperEqualsBerkeley) {
  const Topology t = topo::star(4, 2);
  const NodeId mapper_host = t.hosts().front();
  simnet::Network net(t);
  ParallelConfig config;
  config.mappers = {{mapper_host, topo::search_depth(t, mapper_host)}};
  const auto result = ParallelMapper(net, config).run();
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
}

}  // namespace
}  // namespace sanmap::mapper
