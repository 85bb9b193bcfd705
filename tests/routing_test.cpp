// Tests for UP*/DOWN* orientation, route computation, deadlock analysis,
// and replay of the emitted source routes through the simulator.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "routing/updown.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"

namespace sanmap::routing {
namespace {

using simnet::Network;
using topo::NodeId;
using topo::Topology;

// ------------------------------------------------------------ orientation --

TEST(UpDown, RootIsFarthestSwitchFromHosts) {
  const Topology t = topo::star(4, 2);
  const UpDownOrientation o(t, {});
  EXPECT_EQ(t.name(o.root()), "center");
  EXPECT_EQ(o.label(o.root()), 0);
}

TEST(UpDown, ExplicitRootHonored) {
  const Topology t = topo::star(4, 2);
  const NodeId leaf = t.switches()[1];
  UpDownOptions options;
  options.root = leaf;
  const UpDownOrientation o(t, options);
  EXPECT_EQ(o.root(), leaf);
}

TEST(UpDown, EdgesPointTowardRoot) {
  const Topology t = topo::star(3, 1);
  const UpDownOrientation o(t, {});
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    // For each wire, exactly one direction is up.
    EXPECT_NE(o.goes_up(w, wire.a.node), o.goes_up(w, wire.b.node));
    // The up move decreases the label (or ties broken by id).
    const NodeId from = o.goes_up(w, wire.a.node) ? wire.a.node : wire.b.node;
    const NodeId to = wire.opposite(from).node;
    EXPECT_LE(o.label(to), o.label(from));
  }
}

TEST(UpDown, HostsAreAlwaysBelowTheirSwitch) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const UpDownOrientation o(t, {});
  for (const NodeId h : t.hosts()) {
    const auto w = t.wire_at(h, 0);
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE(o.goes_up(*w, h));
  }
}

/// A diamond with a host-free far corner: r - {x, y} - m, hosts on x and y.
/// BFS from r labels m above both neighbors, so m is locally dominant: no
/// route can transit it until it is relabeled.
Topology diamond_with_dominant_corner() {
  Topology t;
  const NodeId r = t.add_switch("r");
  const NodeId x = t.add_switch("x");
  const NodeId y = t.add_switch("y");
  const NodeId m = t.add_switch("m");
  t.connect(r, 0, x, 0);
  t.connect(r, 1, y, 0);
  t.connect(x, 1, m, 0);
  t.connect(y, 1, m, 1);
  for (int i = 0; i < 2; ++i) {
    const NodeId hx = t.add_host("hx" + std::to_string(i));
    t.connect(hx, 0, x, 2 + i);
    const NodeId hy = t.add_host("hy" + std::to_string(i));
    t.connect(hy, 0, y, 2 + i);
  }
  return t;
}

TEST(UpDown, DominantSwitchGetsRelabeled) {
  const Topology t = diamond_with_dominant_corner();
  UpDownOptions fix;
  fix.root = *[&]() -> std::optional<NodeId> {
    for (const NodeId s : t.switches()) {
      if (t.name(s) == "r") {
        return s;
      }
    }
    return std::nullopt;
  }();
  fix.fix_dominant_switches = true;
  const UpDownOrientation fixed(t, fix);
  UpDownOptions raw = fix;
  raw.fix_dominant_switches = false;
  const UpDownOrientation unfixed(t, raw);
  EXPECT_EQ(fixed.relabeled_switches(), 1);
  EXPECT_EQ(unfixed.relabeled_switches(), 0);
  // After the fix, m sits below its neighbors and can be transited.
  const NodeId m = *[&]() -> std::optional<NodeId> {
    for (const NodeId s : t.switches()) {
      if (t.name(s) == "m") {
        return s;
      }
    }
    return std::nullopt;
  }();
  EXPECT_LT(fixed.label(m), 1);
  EXPECT_EQ(unfixed.label(m), 2);
  // Routes are valid either way; with the fix, some cross route may use m.
  for (const bool use_fix : {true, false}) {
    UpDownOptions options = fix;
    options.fix_dominant_switches = use_fix;
    const auto result = compute_updown_routes(t, options);
    EXPECT_TRUE(updown_compliant(result));
    EXPECT_TRUE(analyze_routes(t, result).deadlock_free);
  }
}

TEST(UpDown, RequiresConnectedTopology) {
  Topology t = topo::star(2, 1);
  t.add_switch();  // disconnected
  EXPECT_THROW(UpDownOrientation(t, {}), common::CheckFailure);
}

// ----------------------------------------------------------------- routes --

void expect_routes_valid(const Topology& t, const RoutingResult& result) {
  const auto hosts = t.hosts();
  // Every ordered host pair has a route.
  EXPECT_EQ(result.routes.size(), hosts.size() * (hosts.size() - 1));
  EXPECT_TRUE(updown_compliant(result));
  const auto analysis = analyze_routes(t, result);
  EXPECT_TRUE(analysis.deadlock_free)
      << "dependency cycle of " << analysis.cycle.size() << " channels";

  // Replaying the turn sequences through the simulator delivers each
  // message to its destination.
  Network net(t);
  for (const auto& [key, route] : result.routes) {
    const auto r = net.send(key.first, route.turns);
    ASSERT_TRUE(r.delivered())
        << t.name(key.first) << " -> " << t.name(key.second) << ": "
        << to_string(r.status);
    EXPECT_EQ(r.destination, key.second);
  }
}

TEST(Routes, LineNetwork) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, s0, 2);
  t.connect(s0, 5, s1, 1);
  t.connect(h1, 0, s1, 4);
  const auto result = compute_updown_routes(t);
  expect_routes_valid(t, result);
  EXPECT_EQ(result.route(h0, h1).hops(), 3);
  EXPECT_EQ(result.route(h0, h1).turns, (simnet::Route{3, 3}));
}

TEST(Routes, StarAllPairs) {
  const Topology t = topo::star(4, 3);
  expect_routes_valid(t, compute_updown_routes(t));
}

TEST(Routes, RingAllPairs) {
  const Topology t = topo::ring(6, 1);
  expect_routes_valid(t, compute_updown_routes(t));
}

TEST(Routes, HypercubeWithDominantFix) {
  const Topology t = topo::hypercube(3, 1);
  const auto result = compute_updown_routes(t);
  expect_routes_valid(t, result);
}

TEST(Routes, HypercubeWithoutDominantFixStillDeadlockFree) {
  const Topology t = topo::hypercube(3, 1);
  UpDownOptions options;
  options.fix_dominant_switches = false;
  const auto result = compute_updown_routes(t, options);
  expect_routes_valid(t, result);
}

TEST(Routes, MeshAndTorus) {
  expect_routes_valid(topo::mesh(3, 3, 1),
                      compute_updown_routes(topo::mesh(3, 3, 1)));
  expect_routes_valid(topo::torus(3, 3, 1),
                      compute_updown_routes(topo::torus(3, 3, 1)));
}

TEST(Routes, NowSubclusterC) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const NodeId util = *t.find_host("C.util");
  UpDownOptions options;
  options.ignore_hosts = {util};  // §5.5: ignore the utility host
  const auto result = compute_updown_routes(t, options);
  expect_routes_valid(t, result);
  // The root should be a root-level switch of the fat tree.
  EXPECT_NE(t.name(result.orientation.root()).find("root"),
            std::string::npos);
}

TEST(Routes, FullNowCluster) {
  const Topology t = topo::now_cluster();
  const auto result = compute_updown_routes(t);
  EXPECT_EQ(result.routes.size(), 100u * 99u);
  EXPECT_TRUE(updown_compliant(result));
  EXPECT_TRUE(analyze_routes(t, result).deadlock_free);
  EXPECT_GT(result.mean_hops(), 2.0);
  EXPECT_LE(result.max_hops(), topo::diameter(t) + 4);
}

TEST(Routes, RandomNetworksSweep) {
  common::Rng rng(314);
  for (int trial = 0; trial < 10; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t =
        topo::random_irregular(3 + trial, 4 + trial, trial, topo_rng);
    expect_routes_valid(t, compute_updown_routes(t, {}, rng.next()));
  }
}

TEST(Routes, ParallelCablesAreLoadBalanced) {
  // Two parallel cables between the switches: different seeds should
  // eventually pick different cables for some pair.
  Topology t;
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(s0, 0, s1, 0);
  t.connect(s0, 1, s1, 1);
  std::vector<NodeId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(t.add_host());
    t.connect_any(hosts.back(), s0);
    hosts.push_back(t.add_host());
    t.connect_any(hosts.back(), s1);
  }
  bool used_both = false;
  topo::WireId first_seen = topo::kInvalidWire;
  for (std::uint64_t seed = 1; seed <= 16 && !used_both; ++seed) {
    const auto result = compute_updown_routes(t, {}, seed);
    for (const auto& [key, route] : result.routes) {
      for (const topo::WireId w : route.wires) {
        const topo::Wire& wire = t.wire(w);
        if (wire.a.node != s0 && wire.b.node != s0) {
          continue;
        }
        if (wire.a.node == s0 && wire.b.node == s1) {
          if (first_seen == topo::kInvalidWire) {
            first_seen = w;
          } else if (w != first_seen) {
            used_both = true;
          }
        }
      }
    }
  }
  EXPECT_TRUE(used_both);
}

TEST(Routes, TableForReturnsPerSourceRoutes) {
  const Topology t = topo::star(3, 2);
  auto result = compute_updown_routes(t);
  const auto hosts = t.hosts();
  // Each source's table is exactly its routes, in ascending destination
  // order: the first host, the last host and every one between.
  for (const NodeId src : hosts) {
    std::vector<const HostRoute*> want;
    for (const NodeId dst : hosts) {
      if (dst != src) {
        want.push_back(&result.route(src, dst));
      }
    }
    EXPECT_EQ(result.table_for(src), want) << t.name(src);
  }
  EXPECT_EQ(result.table_for(hosts.front()).size(), hosts.size() - 1);
  EXPECT_EQ(result.table_for(hosts.back()).size(), hosts.size() - 1);
  // Nodes with no routes get an empty table: a switch, an id past every
  // node, and a host whose routes were dropped (its neighbours in id order
  // keep theirs).
  EXPECT_TRUE(result.table_for(t.switches().front()).empty());
  EXPECT_TRUE(result.table_for(static_cast<NodeId>(t.node_capacity())).empty());
  const NodeId dropped = hosts[2];
  std::erase_if(result.routes, [&](const auto& entry) {
    return entry.first.first == dropped;
  });
  EXPECT_TRUE(result.table_for(dropped).empty());
  EXPECT_EQ(result.table_for(hosts[1]).size(), hosts.size() - 1);
  EXPECT_EQ(result.table_for(hosts[3]).size(), hosts.size() - 1);
}

TEST(Routes, MissingRouteThrows) {
  const Topology t = topo::star(3, 2);
  const auto result = compute_updown_routes(t);
  EXPECT_THROW((void)result.route(t.hosts()[0], t.hosts()[0]),
               common::CheckFailure);
}

// ---------------------------------------------------------------- deadlock --

TEST(Deadlock, DetectsAHandMadeCycle) {
  // Ring of 3 switches; three "routes" that each go one step clockwise
  // create the classic cyclic channel dependency.
  const Topology t = topo::ring(3, 1);
  const auto wires = t.wires();
  // Collect the three ring wires (those between switches).
  std::vector<Channel> ring_channels;
  for (const topo::WireId w : wires) {
    const topo::Wire& wire = t.wire(w);
    if (t.is_switch(wire.a.node) && t.is_switch(wire.b.node)) {
      ring_channels.push_back(Channel{w, true});
    }
  }
  ASSERT_EQ(ring_channels.size(), 3u);
  // Orient the channels consistently clockwise: channel i goes from
  // switch i to switch i+1. ring() wires port 0 (cw) to port 1, and wire
  // endpoints are (i, 0)-(i+1, 1), so a_to_b is clockwise already.
  ChannelPaths paths;
  paths.add({ring_channels[0], ring_channels[1]});
  paths.add({ring_channels[1], ring_channels[2]});
  paths.add({ring_channels[2], ring_channels[0]});
  const auto analysis = analyze_channel_paths(t, paths);
  EXPECT_FALSE(analysis.deadlock_free);
  EXPECT_GE(analysis.cycle.size(), 3u);
}

TEST(Deadlock, AcyclicPathsPass) {
  const Topology t = topo::ring(3, 1);
  std::vector<Channel> channels;
  for (const topo::WireId w : t.wires()) {
    channels.push_back(Channel{w, true});
  }
  ChannelPaths paths;
  paths.add({channels[0], channels[1]});
  paths.add({channels[1], channels[2]});
  EXPECT_TRUE(analyze_channel_paths(t, paths).deadlock_free);
}

TEST(Deadlock, CountsDependencies) {
  const Topology t = topo::ring(3, 1);
  const auto result = compute_updown_routes(t);
  const auto analysis = analyze_routes(t, result);
  EXPECT_TRUE(analysis.deadlock_free);
  EXPECT_GT(analysis.dependencies, 0u);
  EXPECT_EQ(analysis.channels, t.wire_capacity() * 2);
}

}  // namespace
}  // namespace sanmap::routing
