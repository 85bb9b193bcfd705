// Tests for graph algorithms: BFS, diameter, bridges, the separated set F,
// the core N - F, and Q / search depth (paper Definitions 2-3, Lemma 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/topology.hpp"

namespace sanmap::topo {
namespace {

/// host0 -- sw0 -- sw1 -- host1, a minimal line network.
Topology line_network() {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, s1, 1);
  t.connect(h1, 0, s1, 0);
  return t;
}

TEST(BfsDistances, LineNetwork) {
  const Topology t = line_network();
  const NodeId h0 = *t.find_host("h0");
  const auto dist = bfs_distances(t, h0);
  EXPECT_EQ(dist[h0], 0);
  EXPECT_EQ(dist[*t.find_host("h1")], 3);
}

TEST(BfsDistances, UnreachableIsMinusOne) {
  Topology t;
  const NodeId h = t.add_host();
  const NodeId s = t.add_switch();  // not connected
  const auto dist = bfs_distances(t, h);
  EXPECT_EQ(dist[h], 0);
  EXPECT_EQ(dist[s], -1);
}

TEST(Connected, DetectsDisconnection) {
  Topology t = line_network();
  EXPECT_TRUE(connected(t));
  t.add_switch();
  EXPECT_FALSE(connected(t));
}

TEST(Components, CountsAndLabels) {
  Topology t = line_network();
  const NodeId lone = t.add_switch();
  std::vector<int> comp;
  EXPECT_EQ(components(t, comp), 2);
  EXPECT_EQ(comp[lone], 1);
  EXPECT_EQ(comp[*t.find_host("h0")], 0);
}

TEST(Diameter, LineNetwork) {
  EXPECT_EQ(diameter(line_network()), 3);  // h0 .. h1
}

TEST(Diameter, StarTopology) {
  // host - leaf - center - leaf - host: diameter 4.
  EXPECT_EQ(diameter(star(3, 1)), 4);
}

TEST(Bridges, EveryEdgeOfATreeIsABridge) {
  const Topology t = line_network();
  EXPECT_EQ(bridges(t).size(), t.num_wires());
}

TEST(Bridges, CycleHasNoBridges) {
  const Topology t = ring(4, 0);
  EXPECT_TRUE(bridges(t).empty());
}

TEST(Bridges, ParallelWiresAreNotBridges) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  t.connect(a, 0, b, 0);
  t.connect(a, 1, b, 1);
  EXPECT_TRUE(bridges(t).empty());
}

TEST(Bridges, MixedGraph) {
  // Triangle a-b-c plus a pendant d attached to a: only a-d is a bridge.
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const NodeId c = t.add_switch();
  const NodeId d = t.add_switch();
  t.connect(a, 0, b, 0);
  t.connect(b, 1, c, 1);
  t.connect(c, 0, a, 1);
  const WireId pendant = t.connect(a, 2, d, 0);
  const auto result = bridges(t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], pendant);
}

TEST(Bridges, SelfLoopIsNotABridge) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const WireId real = t.connect(a, 0, b, 0);
  t.connect(a, 1, a, 2);  // loopback cable
  const auto result = bridges(t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], real);
}

TEST(SwitchBridges, HostLinksExcluded) {
  const Topology t = line_network();
  // h0-s0, s0-s1, s1-h1 are all bridges but only s0-s1 is a switch-bridge.
  const auto sb = switch_bridges(t);
  ASSERT_EQ(sb.size(), 1u);
  const Wire& w = t.wire(sb[0]);
  EXPECT_TRUE(t.is_switch(w.a.node));
  EXPECT_TRUE(t.is_switch(w.b.node));
}

TEST(SeparatedSet, EmptyWhenNoSwitchBridges) {
  const Topology t = ring(5, 1);
  const auto f = separated_set(t);
  EXPECT_TRUE(std::none_of(f.begin(), f.end(), [](bool b) { return b; }));
}

TEST(SeparatedSet, LineNetworkCoreIsEverything) {
  // s0-s1 is a switch-bridge, but both sides contain hosts, so F is empty.
  const auto f = separated_set(line_network());
  EXPECT_TRUE(std::none_of(f.begin(), f.end(), [](bool b) { return b; }));
}

TEST(SeparatedSet, TailBehindSwitchBridgeIsInF) {
  common::Rng rng(42);
  const Topology t = with_switch_tail(5, 6, 3, rng);
  const auto f = separated_set(t);
  int in_f = 0;
  for (const NodeId n : t.nodes()) {
    if (f[n]) {
      EXPECT_TRUE(t.is_switch(n));
      ++in_f;
    }
  }
  EXPECT_EQ(in_f, 3);
}

TEST(Core, RemovesExactlyF) {
  common::Rng rng(7);
  const Topology t = with_switch_tail(6, 8, 2, rng);
  const auto f = separated_set(t);
  const auto f_count = static_cast<std::size_t>(
      std::count(f.begin(), f.end(), true));
  EXPECT_GE(f_count, 2u);  // at least the deliberately attached tail
  const Topology c = core(t);
  EXPECT_EQ(c.num_nodes(), t.num_nodes() - f_count);
  EXPECT_EQ(c.num_hosts(), t.num_hosts());  // F contains only switches
  for (const NodeId n : t.nodes()) {
    EXPECT_EQ(c.node_alive(n), !f[n]);
  }
  EXPECT_TRUE(connected(c));
}

TEST(QOf, LineNetworkValues) {
  const Topology t = line_network();
  const NodeId h0 = *t.find_host("h0");
  const NodeId h1 = *t.find_host("h1");
  // Walk h0 -> h0 (length 0) then h0 -> nearest host... Q(h0): shortest
  // walk from h0 through h0 to any host. Going out to s0 and back reuses
  // the first wire, which is allowed only as first-and-last: h0-s0-h0 has
  // length 2 using the wire twice (first == last). Q(h0) = 0 + ... the
  // degenerate walk h0 (length 0) already starts and ends at a host, but
  // Definition 2 requires reaching *a host* after v; the zero-length walk
  // ends at h0 which is a host, so Q(h0) = 0.
  EXPECT_EQ(q_of(t, h0, h0), 0);
  // h0 -> s0: then on to a host: continue to s1, h1: total 3. Returning to
  // h0 would reuse the h0 wire as 2nd edge (not last==first of the whole
  // walk? it IS first and last of the walk h0-s0-h0). Length 2. So Q(s0)=2.
  const auto switches = t.switches();
  const NodeId s0 = switches[0];
  const NodeId s1 = switches[1];
  EXPECT_EQ(q_of(t, h0, s0), 2);
  EXPECT_EQ(q_of(t, h0, s1), 3);  // h0-s0-s1-h1
  EXPECT_EQ(q_of(t, h0, h1), 3);
  EXPECT_EQ(q_value(t, h0), 3);
}

TEST(QOf, UndefinedBehindSwitchBridge) {
  common::Rng rng(3);
  const Topology t = with_switch_tail(5, 5, 2, rng);
  const auto f = separated_set(t);
  const NodeId mapper = t.hosts().front();
  for (const NodeId n : t.nodes()) {
    EXPECT_EQ(q_of(t, mapper, n).has_value(), !f[n])
        << "node " << n << " (" << t.name(n) << ")";
  }
}

TEST(QOf, RingHasNoFirstLastException) {
  // Ring of 3 switches, hosts on two of them. Q is finite everywhere
  // because the cycle provides edge-disjoint return paths.
  Topology t = ring(3, 0);
  const auto sw = t.switches();
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, sw[0], 2);
  t.connect(h1, 0, sw[1], 2);
  // Q(sw[2]): walk h0, sw0, sw2, sw1, h1: length 4, no edge reuse.
  EXPECT_EQ(q_of(t, h0, sw[2]), 4);
}

TEST(SearchDepth, MatchesQPlusDPlusOne) {
  const Topology t = line_network();
  const NodeId h0 = *t.find_host("h0");
  EXPECT_EQ(search_depth(t, h0), 3 + 3 + 1);
}

TEST(QValue, RequiresPaperAssumptions) {
  Topology t;
  t.add_host("only");
  t.add_switch();
  EXPECT_THROW(q_value(t, 0), common::CheckFailure);
}

TEST(SwitchFarthestFromHosts, PicksDeepestSwitch) {
  // star: center is 2 hops from every host, leaves are 1 hop.
  const Topology t = star(4, 2);
  const NodeId far = switch_farthest_from_hosts(t);
  EXPECT_EQ(t.name(far), "center");
}

TEST(SwitchFarthestFromHosts, IgnoreListExcludesUtilityHost) {
  // Chain h - s0 - s1 - s2 with a utility host on s2. With the utility
  // host counted, s1 (distance 2 from both hosts) is the farthest; ignoring
  // it, s2 (distance 3 from h) is.
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  t.connect(h, 0, s0, 0);
  t.connect(s0, 1, s1, 1);
  t.connect(s1, 2, s2, 2);
  const NodeId util = t.add_host("util");
  t.connect(util, 0, s2, 0);
  EXPECT_EQ(switch_farthest_from_hosts(t), s1);
  EXPECT_EQ(switch_farthest_from_hosts(t, {util}), s2);
}

/// The root search as one BFS per counted host, each folded into a
/// running per-node minimum: the reference the multi-source search must
/// match root for root.
std::optional<NodeId> per_host_bfs_root(const Topology& t,
                                        const std::vector<NodeId>& ignore) {
  std::vector<int> min_dist(t.node_capacity(),
                            std::numeric_limits<int>::max());
  for (const NodeId h : t.hosts()) {
    if (std::find(ignore.begin(), ignore.end(), h) != ignore.end()) {
      continue;
    }
    const auto dist = bfs_distances(t, h);
    for (NodeId v = 0; v < dist.size(); ++v) {
      if (dist[v] >= 0) {
        min_dist[v] = std::min(min_dist[v], dist[v]);
      }
    }
  }
  std::optional<NodeId> best;
  int best_dist = -1;
  for (const NodeId s : t.switches()) {
    if (min_dist[s] != std::numeric_limits<int>::max() &&
        min_dist[s] > best_dist) {
      best_dist = min_dist[s];
      best = s;
    }
  }
  return best;
}

TEST(Algorithms, SwitchFarthestFromHostsMatchesPerHostBfs) {
  std::vector<Topology> fabrics = {
      star(4, 2),        ring(6, 1),   mesh(4, 3, 1),
      torus(4, 4, 1),    hypercube(4, 1),
      fat_tree({}),      multi_pod({}),
      now_system(NowSystem::kC), now_system(NowSystem::kCAB)};
  common::Rng rng(42);
  for (int i = 0; i < 240; ++i) {
    const int switches = 3 + static_cast<int>(rng.below(8));
    const int hosts = 1 + static_cast<int>(rng.below(7));
    const int extra = static_cast<int>(rng.below(6));
    Topology t = random_irregular(switches, hosts, extra, rng);
    if (i % 3 == 1) {
      // Cut nodes out: leaves tombstones and, often, several components.
      const auto nodes = t.nodes();
      for (std::size_t k = 0; k < 1 + rng.below(3); ++k) {
        const NodeId victim = rng.pick(nodes);
        if (t.node_alive(victim)) {
          t.remove_node(victim);
        }
      }
    } else if (i % 3 == 2) {
      // A second, disjoint fabric beside the first.
      const NodeId s = t.add_switch();
      const NodeId h = t.add_host("island" + std::to_string(fabrics.size()));
      t.connect(h, 0, s, 0);
      NodeId prev = s;
      for (int k = 0; k < 1 + static_cast<int>(rng.below(4)); ++k) {
        const NodeId next = t.add_switch();
        t.connect_any(prev, next);
        prev = next;
      }
    }
    fabrics.push_back(std::move(t));
  }
  ASSERT_GE(fabrics.size(), 200u);

  std::size_t compared = 0;
  std::size_t with_ignore = 0;
  std::size_t none_reachable = 0;
  for (std::size_t f = 0; f < fabrics.size(); ++f) {
    const Topology& t = fabrics[f];
    const auto hosts = t.hosts();
    std::vector<std::vector<NodeId>> ignore_lists = {{}};
    if (!hosts.empty()) {
      ignore_lists.push_back({rng.pick(hosts)});
      std::vector<NodeId> some;
      for (const NodeId h : hosts) {
        if (rng.below(2) == 0) {
          some.push_back(h);
        }
      }
      ignore_lists.push_back(some);
      ignore_lists.push_back(hosts);  // nothing left to measure from
    }
    for (const auto& ignore : ignore_lists) {
      const std::optional<NodeId> want = per_host_bfs_root(t, ignore);
      if (want) {
        ASSERT_EQ(switch_farthest_from_hosts(t, ignore), *want)
            << "fabric " << f << ", " << ignore.size() << " ignored";
        ++compared;
        with_ignore += ignore.empty() ? 0u : 1u;
      } else {
        EXPECT_THROW((void)switch_farthest_from_hosts(t, ignore),
                     common::CheckFailure)
            << "fabric " << f;
        ++none_reachable;
      }
    }
  }
  EXPECT_GE(compared, 400u);
  EXPECT_GE(with_ignore, 200u);
  EXPECT_GE(none_reachable, 200u);
}

}  // namespace
}  // namespace sanmap::topo
