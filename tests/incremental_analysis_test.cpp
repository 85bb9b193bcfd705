// Tests for the incremental analysis engine and its independent checker:
//
//  * DynamicBfs is exact — equals a from-scratch BFS after every batch of
//    wire churn (the SL401 distance oracle depends on it);
//  * reanalyze() is byte-identical to a from-scratch analyze() under
//    rolling wire churn, route edits that flip legality, and host removal,
//    while actually taking the fast path;
//  * every unsoundness corner escalates with the right reason and still
//    matches the full analyzer exactly (root change, oversized diff,
//    structural breakage, dependency cycle);
//  * the DeltaChecker re-proves honest deltas and rejects every mutation
//    of the adversarial matrix — on both the full certificates and the
//    incremental CertificateDelta — without trusting the builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "analysis/incremental.hpp"
#include "common/rng.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/topology.hpp"

namespace {

using namespace sanmap;

// ------------------------------------------------------------- helpers

void expect_same_report(const analysis::DiagnosticReport& full,
                        const analysis::DiagnosticReport& inc,
                        const std::string& where) {
  EXPECT_EQ(full.errors(), inc.errors()) << where;
  EXPECT_EQ(full.warnings(), inc.warnings()) << where;
  EXPECT_EQ(full.infos(), inc.infos()) << where;
  ASSERT_EQ(full.diagnostics().size(), inc.diagnostics().size()) << where;
  for (std::size_t i = 0; i < full.diagnostics().size(); ++i) {
    const analysis::Diagnostic& a = full.diagnostics()[i];
    const analysis::Diagnostic& b = inc.diagnostics()[i];
    EXPECT_EQ(a.code, b.code) << where << " diag " << i;
    EXPECT_EQ(a.severity, b.severity) << where << " diag " << i;
    EXPECT_EQ(a.location, b.location) << where << " diag " << i;
    EXPECT_EQ(a.message, b.message) << where << " diag " << i;
    EXPECT_EQ(a.hint, b.hint) << where << " diag " << i;
  }
}

/// Full equivalence: diagnostics byte-identical, certificates equal up to
/// the deadlock topological order (any valid order is acceptable — both are
/// re-proved by check_deadlock against the same paths).
void expect_equivalent(const topo::Topology& t,
                       const routing::RoutingResult& routes,
                       const analysis::AnalysisResult& full,
                       const analysis::AnalysisResult& inc,
                       const std::string& where) {
  expect_same_report(full.report, inc.report, where);
  EXPECT_EQ(full.analyzed_routes, inc.analyzed_routes) << where;
  if (!full.analyzed_routes || !inc.analyzed_routes) {
    return;
  }
  EXPECT_EQ(full.legality.root, inc.legality.root) << where;
  EXPECT_EQ(full.legality.root_name, inc.legality.root_name) << where;
  EXPECT_EQ(full.legality.labels, inc.legality.labels) << where;
  EXPECT_EQ(full.legality.all_legal, inc.legality.all_legal) << where;
  ASSERT_EQ(full.legality.routes.size(), inc.legality.routes.size()) << where;
  for (std::size_t i = 0; i < full.legality.routes.size(); ++i) {
    const analysis::RouteLegality& a = full.legality.routes[i];
    const analysis::RouteLegality& b = inc.legality.routes[i];
    EXPECT_EQ(a.src, b.src) << where;
    EXPECT_EQ(a.dst, b.dst) << where;
    EXPECT_EQ(a.legal, b.legal) << where;
    EXPECT_EQ(a.apex_hop, b.apex_hop) << where;
    EXPECT_EQ(a.offending_hop, b.offending_hop) << where;
  }
  EXPECT_EQ(full.deadlock.deadlock_free, inc.deadlock.deadlock_free) << where;
  EXPECT_EQ(full.deadlock.channels, inc.deadlock.channels) << where;
  EXPECT_EQ(full.deadlock.dependencies, inc.deadlock.dependencies) << where;
  const auto paths = routing::route_channel_paths(t, routes);
  std::vector<std::string> why;
  EXPECT_TRUE(analysis::check_deadlock(paths, full.deadlock, &why))
      << where << (why.empty() ? "" : ": " + why.front());
  why.clear();
  EXPECT_TRUE(analysis::check_deadlock(paths, inc.deadlock, &why))
      << where << (why.empty() ? "" : ": " + why.front());
  why.clear();
  EXPECT_TRUE(analysis::check_legality(t, routes, inc.legality, &why))
      << where << (why.empty() ? "" : ": " + why.front());
}

/// Non-bridge switch-to-switch wires: safe to kill without splitting the
/// fabric (so routing stays total and the churn loop keeps its invariants).
std::vector<topo::WireId> redundant_wires(const topo::Topology& t) {
  const auto bridge_list = topo::bridges(t);
  const std::set<topo::WireId> bridge_set(bridge_list.begin(),
                                          bridge_list.end());
  std::vector<topo::WireId> out;
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (!bridge_set.contains(w) && t.is_switch(wire.a.node) &&
        t.is_switch(wire.b.node)) {
      out.push_back(w);
    }
  }
  return out;
}

routing::UpDownOptions rooted_at(const routing::RoutingResult& routes) {
  routing::UpDownOptions options;
  options.root = routes.orientation.root();
  return options;
}

void rebuild_turns(const topo::Topology& t, routing::HostRoute& route) {
  route.turns.clear();
  for (std::size_t i = 1; i + 1 < route.nodes.size(); ++i) {
    const topo::Wire& in_wire = t.wire(route.wires[i - 1]);
    const topo::Wire& out_wire = t.wire(route.wires[i]);
    const topo::Port in_port = in_wire.opposite(route.nodes[i - 1]).port;
    const topo::Port out_port =
        out_wire.a.node == route.nodes[i] ? out_wire.a.port : out_wire.b.port;
    route.turns.push_back(out_port - in_port);
  }
}

// ------------------------------------------------------------ DynamicBfs

TEST(DynamicBfs, MatchesFullBfsUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    common::Rng rng(seed);
    const int switches = 4 + static_cast<int>(rng.below(8));
    const int hosts = 2 + static_cast<int>(rng.below(4));
    const int extra = 2 + static_cast<int>(rng.below(6));
    topo::Topology t = topo::random_irregular(switches, hosts, extra, rng);

    // Fixed sources: every host plus one switch.
    std::vector<topo::NodeId> sources;
    for (const topo::NodeId n : t.nodes()) {
      if (t.is_host(n)) {
        sources.push_back(n);
      }
    }
    sources.push_back(t.switches().front());
    std::vector<topo::DynamicBfs> trackers;
    for (const topo::NodeId s : sources) {
      trackers.emplace_back(t, s);
    }

    for (int batch = 0; batch < 20; ++batch) {
      std::vector<topo::DynamicBfs::Edge> removed;
      std::vector<topo::DynamicBfs::Edge> added;
      const int ops = 1 + static_cast<int>(rng.below(3));
      for (int op = 0; op < ops; ++op) {
        const auto live = t.wires();
        if (!live.empty() && rng.below(2) == 0) {
          // Kill a random wire (never a host's only wire — sources must
          // stay live, and dead hosts stop being useful sources).
          const topo::WireId w = live[rng.below(live.size())];
          const topo::Wire wire = t.wire(w);
          if (t.is_host(wire.a.node) || t.is_host(wire.b.node)) {
            continue;
          }
          removed.push_back({wire.a.node, wire.b.node});
          t.disconnect(w);
        } else {
          // Wire two random switches with free ports together.
          const auto sw = t.switches();
          const topo::NodeId a = sw[rng.below(sw.size())];
          const topo::NodeId b = sw[rng.below(sw.size())];
          bool free_a = false;
          bool free_b = false;
          for (topo::Port p = 0; p < t.port_count(a); ++p) {
            free_a = free_a || !t.wire_at(a, p).has_value();
          }
          for (topo::Port p = 0; p < t.port_count(b); ++p) {
            free_b = free_b || !t.wire_at(b, p).has_value();
          }
          if (a == b || !free_a || !free_b) {
            continue;
          }
          t.connect_any(a, b);
          added.push_back({a, b});
        }
      }
      for (std::size_t s = 0; s < sources.size(); ++s) {
        trackers[s].apply(t, removed, added);
        const auto expected = topo::bfs_distances(t, sources[s]);
        ASSERT_EQ(trackers[s].distances(), expected)
            << "seed " << seed << " batch " << batch << " source "
            << sources[s];
      }
    }
  }
}

// ------------------------------------------- fast path exactness

TEST(AnalysisState, FastPathMatchesFullAnalyzeUnderWireChurn) {
  topo::FatTreeOptions fat;
  fat.leaf_switches = 4;
  fat.hosts_per_leaf = 2;
  topo::Topology t = topo::fat_tree(fat);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  const routing::UpDownOptions fixed_root = rooted_at(routes);

  analysis::AnalysisState state;
  analysis::DeltaChecker checker;
  {
    const auto first = state.reset(t, routes);
    EXPECT_TRUE(first.delta.escalated_full);
    EXPECT_TRUE(state.primed());
    std::vector<std::string> why;
    ASSERT_TRUE(checker.check(t, routes, first.analysis, first.delta, &why))
        << (why.empty() ? "" : why.front());
  }

  ASSERT_GE(redundant_wires(t).size(), 4u);
  struct Killed {
    topo::NodeId a;
    topo::Port pa;
    topo::NodeId b;
    topo::Port pb;
  };
  std::vector<Killed> downed;
  for (std::size_t epoch = 0; epoch < 8; ++epoch) {
    // Rolling maintenance: revive the previously-killed wire (reconnecting
    // mints a fresh wire id — ids are append-only), kill the next live
    // redundant wire.
    if (!downed.empty()) {
      const Killed k = downed.back();
      downed.pop_back();
      t.connect(k.a, k.pa, k.b, k.pb);
    }
    const auto candidates = redundant_wires(t);
    ASSERT_FALSE(candidates.empty());
    const topo::WireId victim = candidates[epoch % candidates.size()];
    const topo::Wire wire = t.wire(victim);
    downed.push_back({wire.a.node, wire.a.port, wire.b.node, wire.b.port});
    t.disconnect(victim);
    routes = routing::compute_updown_routes(t, fixed_root, 1);

    const auto full = analysis::analyze(t, routes);
    const auto inc = state.reanalyze(t, routes);
    const std::string where = "epoch " + std::to_string(epoch);
    expect_equivalent(t, routes, full, inc.analysis, where);
    std::vector<std::string> why;
    EXPECT_TRUE(checker.check(t, routes, inc.analysis, inc.delta, &why))
        << where << (why.empty() ? "" : ": " + why.front());
  }
  // The point of the exercise: most epochs were served incrementally.
  EXPECT_GE(state.stats().fast_path, 6u) << "churn kept escalating";
}

TEST(AnalysisState, HostRemovalAndIllegalRouteStayExact) {
  topo::Topology t = topo::mesh(3, 3, 1);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  const routing::UpDownOptions fixed_root = rooted_at(routes);
  analysis::AnalysisState state;
  analysis::DeltaChecker checker;
  auto first = state.reset(t, routes);
  std::vector<std::string> why;
  ASSERT_TRUE(checker.check(t, routes, first.analysis, first.delta, &why));

  // Epoch 1: a host dies; its routes vanish from the table.
  topo::NodeId victim = topo::kInvalidNode;
  for (const topo::NodeId n : t.nodes()) {
    if (t.is_host(n) && n != routes.routes.begin()->first.first) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, topo::kInvalidNode);
  t.remove_node(victim);
  routes = routing::compute_updown_routes(t, fixed_root, 1);
  {
    const auto full = analysis::analyze(t, routes);
    const auto inc = state.reanalyze(t, routes);
    EXPECT_FALSE(inc.delta.escalated_full) << "host removal should localize";
    expect_equivalent(t, routes, full, inc.analysis, "host removal");
    why.clear();
    EXPECT_TRUE(checker.check(t, routes, inc.analysis, inc.delta, &why))
        << (why.empty() ? "" : why.front());
  }

  // Epoch 2: inject a down-up turn. On this mesh the over-and-back detour
  // also closes a channel-dependency cycle, so the engine may escalate
  // (kCycle) — the contract under test is exact equivalence either way.
  const std::string injected = analysis::inject_down_up_turn(t, routes);
  ASSERT_FALSE(injected.empty());
  {
    const auto full = analysis::analyze(t, routes);
    const auto inc = state.reanalyze(t, routes);
    EXPECT_FALSE(inc.analysis.legality.all_legal);
    EXPECT_NE(inc.analysis.report.count("SL101"), 0u);
    expect_equivalent(t, routes, full, inc.analysis, "illegal route");
    why.clear();
    EXPECT_TRUE(checker.check(t, routes, inc.analysis, inc.delta, &why))
        << (why.empty() ? "" : why.front());
  }

  // Epoch 3: the route heals again (the state re-primes via escalation if
  // the cyclic epoch left it unprimed; equivalence still holds).
  routes = routing::compute_updown_routes(t, fixed_root, 1);
  {
    const auto full = analysis::analyze(t, routes);
    const auto inc = state.reanalyze(t, routes);
    EXPECT_TRUE(inc.analysis.legality.all_legal);
    expect_equivalent(t, routes, full, inc.analysis, "healed route");
    why.clear();
    EXPECT_TRUE(checker.check(t, routes, inc.analysis, inc.delta, &why))
        << (why.empty() ? "" : why.front());
  }
}

TEST(AnalysisState, IllegalRouteIsFlaggedOnTheFastPath) {
  // A fabric small enough to control every dependency: root s0 over s1 and
  // s2, a direct s1-s2 wire, one host per child switch. The handcrafted
  // detour h1-s1-s2-s0-s2-h2 takes a down-up turn at s2 (SL101) but its
  // over-and-back on the s2-s0 wire closes no cycle — no other route climbs
  // through s0 — so the fast path must flag it WITHOUT escalating.
  topo::Topology t;
  const topo::NodeId s0 = t.add_switch();
  const topo::NodeId s1 = t.add_switch();
  const topo::NodeId s2 = t.add_switch();
  const topo::NodeId h1 = t.add_host();
  const topo::NodeId h2 = t.add_host();
  t.connect_any(s0, s1);
  t.connect_any(s0, s2);
  t.connect_any(s1, s2);
  const topo::WireId h1_wire = t.connect_any(h1, s1);
  const topo::WireId h2_wire = t.connect_any(h2, s2);
  routing::UpDownOptions rooted;
  rooted.root = s0;
  auto routes = routing::compute_updown_routes(t, rooted, 1);
  ASSERT_EQ(routes.routes.size(), 2u);

  analysis::AnalysisState state;
  analysis::DeltaChecker checker;
  const auto first = state.reset(t, routes);
  ASSERT_TRUE(state.primed());
  std::vector<std::string> why;
  ASSERT_TRUE(checker.check(t, routes, first.analysis, first.delta, &why))
      << (why.empty() ? "" : why.front());
  const routing::HostRoute original = routes.routes.at({h1, h2});

  routing::HostRoute detour;
  detour.nodes = {h1, s1, s2, s0, s2, h2};
  const auto wire_between = [&](topo::NodeId a, topo::NodeId b) {
    for (const topo::PortRef& nb : t.neighbors(a)) {
      if (nb.node == b) {
        return *t.wire_at(nb.node, nb.port);
      }
    }
    return topo::kInvalidWire;
  };
  detour.wires = {h1_wire, wire_between(s1, s2), wire_between(s2, s0),
                  wire_between(s2, s0), h2_wire};
  rebuild_turns(t, detour);
  routes.routes[{h1, h2}] = detour;

  {
    const auto full = analysis::analyze(t, routes);
    const auto inc = state.reanalyze(t, routes);
    EXPECT_FALSE(inc.delta.escalated_full) << "route edit should localize";
    EXPECT_FALSE(inc.analysis.legality.all_legal);
    EXPECT_NE(inc.analysis.report.count("SL101"), 0u);
    ASSERT_EQ(inc.delta.legality_updates.size(), 1u);
    EXPECT_FALSE(inc.delta.legality_updates.front().legal);
    expect_equivalent(t, routes, full, inc.analysis, "illegal route");
    why.clear();
    EXPECT_TRUE(checker.check(t, routes, inc.analysis, inc.delta, &why))
        << (why.empty() ? "" : why.front());
  }

  // The route heals; still the fast path.
  routes.routes[{h1, h2}] = original;
  {
    const auto full = analysis::analyze(t, routes);
    const auto inc = state.reanalyze(t, routes);
    EXPECT_FALSE(inc.delta.escalated_full);
    EXPECT_TRUE(inc.analysis.legality.all_legal);
    expect_equivalent(t, routes, full, inc.analysis, "healed route");
    why.clear();
    EXPECT_TRUE(checker.check(t, routes, inc.analysis, inc.delta, &why))
        << (why.empty() ? "" : why.front());
  }
  EXPECT_EQ(state.stats().fast_path, 2u);
}

// ------------------------------------------------------- escalation

TEST(AnalysisState, EscalatesOnRootChangeOversizedDiffAndBreakage) {
  topo::Topology t = topo::fat_tree({});
  auto routes = routing::compute_updown_routes(t, {}, 1);
  analysis::AnalysisState state;
  state.reset(t, routes);
  ASSERT_TRUE(state.primed());

  // Root change: re-route from a different root.
  {
    routing::UpDownOptions other;
    for (const topo::NodeId s : t.switches()) {
      if (s != routes.orientation.root()) {
        other.root = s;
        break;
      }
    }
    const auto rerooted = routing::compute_updown_routes(t, other, 1);
    const auto inc = state.reanalyze(t, rerooted);
    EXPECT_TRUE(inc.delta.escalated_full);
    EXPECT_EQ(inc.delta.reason, analysis::EscalationReason::kRootChanged);
    expect_equivalent(t, rerooted, analysis::analyze(t, rerooted),
                      inc.analysis, "root change");
  }

  // Oversized diff: a completely different fabric (compaction-scale).
  {
    topo::Topology other = topo::mesh(4, 4, 1);
    const auto other_routes = routing::compute_updown_routes(other, {}, 1);
    const auto inc = state.reanalyze(other, other_routes);
    EXPECT_TRUE(inc.delta.escalated_full);
    expect_equivalent(other, other_routes,
                      analysis::analyze(other, other_routes), inc.analysis,
                      "fabric swap");
  }

  // Structural breakage: kill a wire the (stale) table still uses.
  {
    topo::Topology broken = topo::fat_tree({});
    auto stale = routing::compute_updown_routes(broken, {}, 1);
    analysis::AnalysisState fresh;
    fresh.reset(broken, stale);
    ASSERT_TRUE(fresh.primed());
    const topo::WireId used = stale.routes.begin()->second.wires.front();
    broken.disconnect(used);
    const auto inc = fresh.reanalyze(broken, stale);
    EXPECT_TRUE(inc.delta.escalated_full);
    EXPECT_EQ(inc.delta.reason,
              analysis::EscalationReason::kStructureFinding);
    const auto full = analysis::analyze(broken, stale);
    EXPECT_FALSE(full.analyzed_routes);
    expect_equivalent(broken, stale, full, inc.analysis, "broken table");
    EXPECT_FALSE(fresh.primed()) << "a broken epoch must not prime";
  }
}

TEST(AnalysisState, DependencyCycleEscalatesWithCounterexample) {
  topo::Topology t = topo::ring(3, 1);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  analysis::AnalysisState state;
  state.reset(t, routes);
  ASSERT_TRUE(state.primed());

  // Rewrite three routes to circle the ring clockwise; their middle ring
  // wires form the dependency cycle r0 -> r1 -> r2 -> r0.
  const auto switches = t.switches();
  ASSERT_EQ(switches.size(), 3u);
  const auto host_of = [&](topo::NodeId s) {
    for (const topo::PortRef& nb : t.neighbors(s)) {
      if (t.is_host(nb.node)) {
        return nb.node;
      }
    }
    return topo::kInvalidNode;
  };
  const auto wire_between = [&](topo::NodeId a, topo::NodeId b) {
    for (const topo::PortRef& nb : t.neighbors(a)) {
      if (nb.node == b) {
        return *t.wire_at(nb.node, nb.port);
      }
    }
    return topo::kInvalidWire;
  };
  for (std::size_t i = 0; i < 3; ++i) {
    const topo::NodeId s0 = switches[i];
    const topo::NodeId s1 = switches[(i + 1) % 3];
    const topo::NodeId s2 = switches[(i + 2) % 3];
    const topo::NodeId h0 = host_of(s0);
    const topo::NodeId h2 = host_of(s2);
    routing::HostRoute loop;
    loop.nodes = {h0, s0, s1, s2, h2};
    loop.wires = {*t.wire_at(h0, 0), wire_between(s0, s1),
                  wire_between(s1, s2), *t.wire_at(h2, 0)};
    rebuild_turns(t, loop);
    routes.routes[{h0, h2}] = std::move(loop);
  }
  const auto inc = state.reanalyze(t, routes);
  EXPECT_TRUE(inc.delta.escalated_full);
  EXPECT_EQ(inc.delta.reason, analysis::EscalationReason::kCycle);
  const auto full = analysis::analyze(t, routes);
  EXPECT_FALSE(full.deadlock.deadlock_free);
  expect_equivalent(t, routes, full, inc.analysis, "cyclic table");
  EXPECT_NE(inc.analysis.report.count("SL201"), 0u);
  EXPECT_FALSE(inc.analysis.deadlock.cycle.empty());
}

/// One of two maps over the same ids — six switches s0..s5, hosts h1..h3 on
/// s1..s3 and a0..a3 / b0..b3 on s4 / s5 — that differ only in what wires
/// 0..2 connect: a spine s0-s1-s2-s3, or a hub s3 joined to s0, s1 and s2.
/// Every id is alive in both, so a liveness diff sees nothing change, yet
/// s1..s3 sit at other distances from s0 — the shape two compacted
/// snapshots take when a remap drops part of the fabric and finds it again.
topo::Topology spine_or_hub(bool hub) {
  topo::Topology t;
  std::vector<topo::NodeId> s;
  for (int i = 0; i < 6; ++i) {
    s.push_back(t.add_switch());
  }
  if (hub) {
    t.connect(s[0], 0, s[3], 0);
    t.connect(s[3], 1, s[1], 0);
    t.connect(s[3], 2, s[2], 0);
  } else {
    t.connect(s[0], 0, s[1], 0);
    t.connect(s[1], 1, s[2], 0);
    t.connect(s[2], 1, s[3], 0);
  }
  t.connect(s[0], 1, s[4], 0);
  t.connect(s[0], 2, s[5], 0);
  const auto add_host = [&t](const char* name, topo::NodeId sw,
                             topo::Port port) {
    t.connect(t.add_host(name), 0, sw, port);
  };
  add_host("h1", s[1], 4);
  add_host("h2", s[2], 4);
  add_host("h3", s[3], 4);
  const char* const a_hosts[] = {"a0", "a1", "a2", "a3"};
  const char* const b_hosts[] = {"b0", "b1", "b2", "b3"};
  for (topo::Port p = 0; p < 4; ++p) {
    add_host(a_hosts[p], s[4], p + 1);
  }
  for (topo::Port p = 0; p < 4; ++p) {
    add_host(b_hosts[p], s[5], p + 1);
  }
  return t;
}

TEST(AnalysisState, RewiredIdsDoNotDriftTheLabels) {
  // Regression: the diff compared only liveness per id, so the rewired
  // wires never reached the root BFS. The fast path kept the spine's
  // distances, relabeled nothing, and flagged the hub's legal h1->h2 route
  // (s1 -> s3 -> s2) as a down-to-up turn: false SL101 findings that
  // refused a safe table.
  const topo::Topology spine = spine_or_hub(false);
  const topo::Topology hub = spine_or_hub(true);
  routing::UpDownOptions rooted;
  rooted.root = spine.switches().front();
  const auto spine_routes = routing::compute_updown_routes(spine, rooted, 1);
  const auto hub_routes = routing::compute_updown_routes(hub, rooted, 1);

  analysis::AnalysisState state;
  state.reset(spine, spine_routes);
  ASSERT_TRUE(state.primed());
  const auto inc = state.reanalyze(hub, hub_routes);
  const auto full = analysis::analyze(hub, hub_routes);
  ASSERT_TRUE(full.clean());
  expect_equivalent(hub, hub_routes, full, inc.analysis, "rewired ids");

  // And the state it leaves behind serves the next step exactly.
  const auto again = state.reanalyze(spine, spine_routes);
  expect_equivalent(spine, spine_routes, analysis::analyze(spine, spine_routes),
                    again.analysis, "rewired back");
}

// ------------------------------------------- adversarial delta matrix

/// One fixture: a primed baseline, one honest incremental step, and a
/// checker factory that replays the proven history so each mutation starts
/// from an identical, seeded mirror.
class DeltaMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo::FatTreeOptions fat;
    fat.leaf_switches = 4;
    fat.hosts_per_leaf = 2;
    t_ = topo::fat_tree(fat);
    routes0_.emplace(routing::compute_updown_routes(t_, {}, 1));
    analysis::AnalysisState state;
    base_ = state.reset(t_, *routes0_);
    t0_ = t_;  // the epoch-0 snapshot the checker seeds against

    const auto candidates = redundant_wires(t_);
    ASSERT_FALSE(candidates.empty());
    t_.disconnect(candidates.front());
    routes1_.emplace(
        routing::compute_updown_routes(t_, rooted_at(*routes0_), 1));
    step_ = state.reanalyze(t_, *routes1_);
    ASSERT_FALSE(step_.delta.escalated_full);
    ASSERT_FALSE(step_.delta.inserted_edges.empty() &&
                 step_.delta.removed_edges.empty())
        << "churn produced no dependency delta to mutate";
  }

  analysis::DeltaChecker seeded_checker() {
    analysis::DeltaChecker checker;
    std::vector<std::string> why;
    EXPECT_TRUE(
        checker.check(t0_, *routes0_, base_.analysis, base_.delta, &why))
        << (why.empty() ? "" : why.front());
    return checker;
  }

  /// The honest delta must pass; `mutate` is then applied to fresh copies
  /// and the checker must reject.
  void expect_rejected(
      const std::string& what,
      const std::function<void(analysis::AnalysisResult&,
                               analysis::CertificateDelta&)>& mutate) {
    {
      analysis::DeltaChecker honest = seeded_checker();
      std::vector<std::string> why;
      ASSERT_TRUE(
          honest.check(t_, *routes1_, step_.analysis, step_.delta, &why))
          << what << ": honest delta rejected: "
          << (why.empty() ? "" : why.front());
    }
    analysis::AnalysisResult result = step_.analysis;
    analysis::CertificateDelta delta = step_.delta;
    mutate(result, delta);
    analysis::DeltaChecker checker = seeded_checker();
    std::vector<std::string> why;
    EXPECT_FALSE(checker.check(t_, *routes1_, result, delta, &why)) << what;
    EXPECT_FALSE(why.empty()) << what;
    EXPECT_FALSE(checker.seeded()) << what << ": rejection must poison";
  }

  topo::Topology t_;
  topo::Topology t0_;
  std::optional<routing::RoutingResult> routes0_;
  std::optional<routing::RoutingResult> routes1_;
  analysis::AnalysisState::Result base_;
  analysis::AnalysisState::Result step_;
};

TEST_F(DeltaMutationTest, DroppedDependencyEdgeIsRejected) {
  expect_rejected("drop edge", [](analysis::AnalysisResult&,
                                  analysis::CertificateDelta& delta) {
    if (!delta.removed_edges.empty()) {
      delta.removed_edges.pop_back();
    } else {
      delta.inserted_edges.pop_back();
    }
  });
}

TEST_F(DeltaMutationTest, InjectedCycleEdgeIsRejected) {
  expect_rejected("add cycle edge", [](analysis::AnalysisResult& result,
                                       analysis::CertificateDelta& delta) {
    // Claim the reverse of a real dependency was inserted — were the
    // checker to trust it, the "order" would have to contain a 2-cycle.
    ASSERT_FALSE(result.deadlock.topological_order.size() < 2);
    const auto& order = result.deadlock.topological_order;
    delta.inserted_edges.emplace_back(order.back(), order.front());
    ++result.deadlock.dependencies;
  });
}

TEST_F(DeltaMutationTest, PermutedTopologicalOrderIsRejected) {
  expect_rejected("permute order", [](analysis::AnalysisResult& result,
                                      analysis::CertificateDelta&) {
    auto& order = result.deadlock.topological_order;
    ASSERT_GE(order.size(), 2u);
    std::reverse(order.begin(), order.end());
  });
}

TEST_F(DeltaMutationTest, SwappedApexHopIsRejected) {
  expect_rejected("swap apex hop", [](analysis::AnalysisResult& result,
                                      analysis::CertificateDelta& delta) {
    ASSERT_FALSE(delta.legality_updates.empty());
    analysis::RouteLegality& entry = delta.legality_updates.front();
    entry.apex_hop += 1;
    // Keep the full certificate consistent with the lie, so only the
    // checker's re-derivation can catch it.
    for (analysis::RouteLegality& cert_entry : result.legality.routes) {
      if (cert_entry.src == entry.src && cert_entry.dst == entry.dst) {
        cert_entry.apex_hop = entry.apex_hop;
      }
    }
  });
}

TEST_F(DeltaMutationTest, TruncatedDeltaIsRejected) {
  expect_rejected("truncate delta", [](analysis::AnalysisResult&,
                                       analysis::CertificateDelta& delta) {
    ASSERT_FALSE(delta.legality_updates.empty());
    delta.legality_updates.pop_back();
  });
}

TEST_F(DeltaMutationTest, StaleRevisionIsRejected) {
  expect_rejected("stale revision", [](analysis::AnalysisResult&,
                                       analysis::CertificateDelta& delta) {
    delta.base_revision += 1;
  });
}

TEST_F(DeltaMutationTest, FullCertificateMutationsAreRejectedToo) {
  // The same adversarial matrix against the FULL certificates, proving the
  // from-scratch checkers reject what the delta checker rejects.
  const auto paths = routing::route_channel_paths(t_, *routes1_);
  const auto full = analysis::analyze(t_, *routes1_);
  {
    auto cert = full.deadlock;
    std::reverse(cert.topological_order.begin(),
                 cert.topological_order.end());
    EXPECT_FALSE(analysis::check_deadlock(paths, cert));
  }
  {
    auto cert = full.deadlock;
    cert.topological_order.pop_back();
    EXPECT_FALSE(analysis::check_deadlock(paths, cert));
  }
  {
    auto cert = full.deadlock;
    cert.dependencies -= 1;
    EXPECT_FALSE(analysis::check_deadlock(paths, cert));
  }
  {
    auto cert = full.legality;
    cert.routes.front().apex_hop += 1;
    EXPECT_FALSE(analysis::check_legality(t_, *routes1_, cert));
  }
  {
    auto cert = full.legality;
    cert.routes.pop_back();
    EXPECT_FALSE(analysis::check_legality(t_, *routes1_, cert));
  }
}

}  // namespace
