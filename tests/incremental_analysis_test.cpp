// Tests for AnalysisState and DeltaChecker:
//
//  * reanalyze() returns exactly analyze() on every churn fixture: rolling
//    wire churn, host removal, illegal and healed routes, a root change, a
//    fabric swap, a broken table, a dependency cycle, and two maps that
//    reuse ids for other wires;
//  * its delta is keyed by names, so two maps that differ only in id
//    numbering yield an empty delta;
//  * the checker rejects every mutation of the full certificates.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "analysis/incremental.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/topology.hpp"

namespace {

using namespace sanmap;

// ------------------------------------------------------------- helpers

void expect_same(const analysis::AnalysisResult& full,
                 const analysis::AnalysisResult& re,
                 const std::string& where) {
  EXPECT_EQ(analysis::to_json(full), analysis::to_json(re)) << where;
  ASSERT_EQ(full.report.diagnostics().size(), re.report.diagnostics().size())
      << where;
  for (std::size_t i = 0; i < full.report.diagnostics().size(); ++i) {
    const analysis::Diagnostic& a = full.report.diagnostics()[i];
    const analysis::Diagnostic& b = re.report.diagnostics()[i];
    EXPECT_EQ(a.severity, b.severity) << where << " diag " << i;
    EXPECT_EQ(a.message, b.message) << where << " diag " << i;
    EXPECT_EQ(a.hint, b.hint) << where << " diag " << i;
  }
  EXPECT_EQ(full.legality.labels, re.legality.labels) << where;
  ASSERT_EQ(full.legality.routes.size(), re.legality.routes.size()) << where;
  for (std::size_t i = 0; i < full.legality.routes.size(); ++i) {
    const analysis::RouteLegality& a = full.legality.routes[i];
    const analysis::RouteLegality& b = re.legality.routes[i];
    EXPECT_EQ(a.legal, b.legal) << where;
    EXPECT_EQ(a.apex_hop, b.apex_hop) << where;
    EXPECT_EQ(a.offending_hop, b.offending_hop) << where;
  }
  EXPECT_EQ(full.deadlock.topological_order.size(),
            re.deadlock.topological_order.size())
      << where;
  EXPECT_EQ(full.deadlock.cycle.size(), re.deadlock.cycle.size()) << where;
}

/// Non-bridge switch-to-switch wires: safe to kill without splitting the
/// fabric (so routing stays total).
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

topo::WireId wire_between(const topo::Topology& t, topo::NodeId a,
                          topo::NodeId b) {
  for (const topo::PortRef& nb : t.neighbors(a)) {
    if (nb.node == b) {
      return *t.wire_at(nb.node, nb.port);
    }
  }
  return topo::kInvalidWire;
}

/// One of two maps over the same ids — six switches s0..s5, hosts h1..h3 on
/// s1..s3 and a0..a3 / b0..b3 on s4 / s5 — that differ only in what wires
/// 0..2 connect: a spine s0-s1-s2-s3, or a hub s3 joined to s0, s1 and s2.
/// Every id is alive in both, yet s1..s3 sit at other distances from s0 —
/// the shape two compacted snapshots take when a remap drops part of the
/// fabric and finds it again.
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

/// Feeds every table through one AnalysisState and demands that each
/// result equal a from-scratch analyze() and pass the checker.
class Replay {
 public:
  analysis::AnalysisState::Result step(const topo::Topology& t,
                                       const routing::RoutingResult& routes,
                                       const std::string& where) {
    analysis::AnalysisState::Result r = state_.reanalyze(t, routes);
    expect_same(analysis::analyze(t, routes), r.analysis, where);
    std::vector<std::string> why;
    EXPECT_TRUE(checker_.check(t, routes, r.analysis, r.delta, &why))
        << where << (why.empty() ? "" : ": " + why.front());
    return r;
  }

 private:
  analysis::AnalysisState state_;
  analysis::DeltaChecker checker_;
};

bool has_finding(const std::vector<analysis::CertificateDelta::Finding>& list,
                 const std::string& code) {
  return std::any_of(list.begin(), list.end(),
                     [&](const auto& f) { return f.first == code; });
}

// ----------------------------------------------- reanalyze == analyze

TEST(AnalysisState, ReanalyzeEqualsAnalyzeOnTheChurnFixtures) {
  Replay replay;

  // Rolling maintenance on a fat tree: revive the previously killed wire
  // (reconnecting mints a fresh wire id), kill the next redundant one.
  {
    topo::FatTreeOptions fat;
    fat.leaf_switches = 4;
    fat.hosts_per_leaf = 2;
    topo::Topology t = topo::fat_tree(fat);
    auto routes = routing::compute_updown_routes(t, {}, 1);
    const routing::UpDownOptions fixed_root = rooted_at(routes);
    const auto first = replay.step(t, routes, "fat tree");
    EXPECT_EQ(first.delta.added_routes.size(), routes.routes.size());
    EXPECT_TRUE(first.delta.removed_routes.empty());
    struct Killed {
      topo::NodeId a;
      topo::Port pa;
      topo::NodeId b;
      topo::Port pb;
    };
    std::vector<Killed> downed;
    for (std::size_t epoch = 0; epoch < 8; ++epoch) {
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
      replay.step(t, routes, "churn epoch " + std::to_string(epoch));
    }
  }

  // A host dies, then one route takes a down-to-up turn and heals again.
  {
    topo::Topology t = topo::mesh(3, 3, 1);
    auto routes = routing::compute_updown_routes(t, {}, 1);
    const routing::UpDownOptions fixed_root = rooted_at(routes);
    replay.step(t, routes, "mesh");
    topo::NodeId victim = topo::kInvalidNode;
    for (const topo::NodeId n : t.nodes()) {
      if (t.is_host(n) && n != routes.routes.begin()->first.first) {
        victim = n;
        break;
      }
    }
    ASSERT_NE(victim, topo::kInvalidNode);
    const std::size_t hosts = t.num_hosts();
    t.remove_node(victim);
    routes = routing::compute_updown_routes(t, fixed_root, 1);
    const auto removed = replay.step(t, routes, "host removal");
    EXPECT_EQ(removed.delta.removed_routes.size(), 2 * (hosts - 1));
    EXPECT_TRUE(removed.delta.added_routes.empty());

    ASSERT_FALSE(analysis::inject_down_up_turn(t, routes).empty());
    const auto illegal = replay.step(t, routes, "illegal route");
    EXPECT_FALSE(illegal.analysis.legality.all_legal);
    EXPECT_EQ(illegal.delta.changed_routes.size(), 1u);
    EXPECT_TRUE(has_finding(illegal.delta.introduced, "SL101"));

    routes = routing::compute_updown_routes(t, fixed_root, 1);
    const auto healed = replay.step(t, routes, "healed route");
    EXPECT_TRUE(healed.analysis.legality.all_legal);
    EXPECT_EQ(healed.delta.changed_routes.size(), 1u);
    EXPECT_TRUE(has_finding(healed.delta.resolved, "SL101"));
  }

  // A handcrafted detour h1-s1-s2-s0-s2-h2: a down-up turn at s2 whose
  // over-and-back on the s2-s0 wire closes no cycle.
  {
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
    routing::HostRoute detour;
    detour.nodes = {h1, s1, s2, s0, s2, h2};
    detour.wires = {h1_wire, wire_between(t, s1, s2), wire_between(t, s2, s0),
                    wire_between(t, s2, s0), h2_wire};
    rebuild_turns(t, detour);
    routes.routes[{h1, h2}] = detour;
    const auto r = replay.step(t, routes, "detour");
    EXPECT_FALSE(r.analysis.legality.all_legal);
    EXPECT_TRUE(r.analysis.deadlock.deadlock_free);
  }

  // A root change, then a different fabric altogether.
  {
    const topo::Topology t = topo::fat_tree({});
    const auto routes = routing::compute_updown_routes(t, {}, 1);
    replay.step(t, routes, "fat tree, default root");
    routing::UpDownOptions other;
    for (const topo::NodeId s : t.switches()) {
      if (s != routes.orientation.root()) {
        other.root = s;
        break;
      }
    }
    replay.step(t, routing::compute_updown_routes(t, other, 1),
                "root change");
    const topo::Topology mesh = topo::mesh(4, 4, 1);
    replay.step(mesh, routing::compute_updown_routes(mesh, {}, 1),
                "fabric swap");
  }

  // A stale table over a dead wire: structurally broken, no certificates.
  {
    topo::Topology t = topo::fat_tree({});
    const auto stale = routing::compute_updown_routes(t, {}, 1);
    t.disconnect(stale.routes.begin()->second.wires.front());
    const auto r = replay.step(t, stale, "broken table");
    EXPECT_FALSE(r.analysis.analyzed_routes);
  }

  // Three routes circling a ring: a dependency cycle as counterexample.
  {
    const topo::Topology t = topo::ring(3, 1);
    auto routes = routing::compute_updown_routes(t, {}, 1);
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
    for (std::size_t i = 0; i < 3; ++i) {
      const topo::NodeId a = switches[i];
      const topo::NodeId b = switches[(i + 1) % 3];
      const topo::NodeId c = switches[(i + 2) % 3];
      const topo::NodeId ha = host_of(a);
      const topo::NodeId hc = host_of(c);
      routing::HostRoute loop;
      loop.nodes = {ha, a, b, c, hc};
      loop.wires = {*t.wire_at(ha, 0), wire_between(t, a, b),
                    wire_between(t, b, c), *t.wire_at(hc, 0)};
      rebuild_turns(t, loop);
      routes.routes[{ha, hc}] = std::move(loop);
    }
    const auto r = replay.step(t, routes, "cyclic table");
    EXPECT_FALSE(r.analysis.deadlock.deadlock_free);
    EXPECT_NE(r.analysis.report.count("SL201"), 0u);
  }

  // Regression pair: the same ids, rewired. The dirty-region engine this
  // class replaced kept the spine's labels for the hub and flagged its
  // legal h1->h2 route (s1 -> s3 -> s2) as a down-to-up turn.
  {
    const topo::Topology spine = spine_or_hub(false);
    const topo::Topology hub = spine_or_hub(true);
    routing::UpDownOptions rooted;
    rooted.root = spine.switches().front();
    const auto spine_routes = routing::compute_updown_routes(spine, rooted, 1);
    const auto hub_routes = routing::compute_updown_routes(hub, rooted, 1);
    replay.step(spine, spine_routes, "spine");
    const auto r = replay.step(hub, hub_routes, "rewired ids");
    EXPECT_TRUE(r.analysis.clean());
    EXPECT_FALSE(r.delta.changed_routes.empty());
    replay.step(spine, spine_routes, "rewired back");
  }
}

// ------------------------------------------------------ name-keyed delta

/// A tree of three switches (root r over x and y) with named hosts, built
/// with ids in the given or the reverse order. Same names, same ports.
topo::Topology named_tree(bool reversed) {
  struct Link {
    const char* a;
    topo::Port pa;
    const char* b;
    topo::Port pb;
  };
  const std::vector<std::pair<const char*, bool>> nodes = {
      {"r", false}, {"x", false}, {"y", false}, {"r1", true},
      {"x1", true}, {"x2", true}, {"y1", true}, {"y2", true}};
  const std::vector<Link> links = {{"r", 0, "x", 7}, {"r", 1, "y", 7},
                                   {"r1", 0, "r", 2}, {"x1", 0, "x", 0},
                                   {"x2", 0, "x", 1}, {"y1", 0, "y", 0},
                                   {"y2", 0, "y", 1}};
  topo::Topology t;
  std::vector<std::pair<std::string, topo::NodeId>> ids;
  const auto add = [&](const std::pair<const char*, bool>& node) {
    ids.emplace_back(node.first, node.second ? t.add_host(node.first)
                                             : t.add_switch(node.first));
  };
  const auto id = [&](const char* name) {
    for (const auto& [n, i] : ids) {
      if (n == name) {
        return i;
      }
    }
    return topo::kInvalidNode;
  };
  const auto link = [&](const Link& l) {
    t.connect(id(l.a), l.pa, id(l.b), l.pb);
  };
  if (reversed) {
    std::for_each(nodes.rbegin(), nodes.rend(), add);
    std::for_each(links.rbegin(), links.rend(), link);
  } else {
    std::for_each(nodes.begin(), nodes.end(), add);
    std::for_each(links.begin(), links.end(), link);
  }
  return t;
}

routing::RoutingResult routes_from_r(const topo::Topology& t) {
  routing::UpDownOptions rooted;
  for (const topo::NodeId s : t.switches()) {
    if (t.name(s) == "r") {
      rooted.root = s;
    }
  }
  return routing::compute_updown_routes(t, rooted, 1);
}

TEST(AnalysisState, RenumberedIdsYieldAnEmptyDelta) {
  const topo::Topology forward = named_tree(false);
  const topo::Topology backward = named_tree(true);
  ASSERT_NE(forward.hosts(), backward.hosts()) << "ids were not renumbered";

  // A hop limit of 2 makes every cross-switch route an SL404 finding, so
  // the findings side of the delta is keyed on names too.
  analysis::AnalyzerOptions options;
  options.lints.hop_limit = 2;
  analysis::AnalysisState state(options);
  const auto first = state.reanalyze(forward, routes_from_r(forward));
  ASSERT_EQ(first.delta.added_routes.size(), 20u);
  ASSERT_TRUE(has_finding(first.delta.introduced, "SL404"));

  const auto second = state.reanalyze(backward, routes_from_r(backward));
  EXPECT_TRUE(second.delta.empty())
      << second.delta.added_routes.size() << " added, "
      << second.delta.changed_routes.size() << " changed, "
      << second.delta.removed_routes.size() << " removed, "
      << second.delta.introduced.size() << " introduced, "
      << second.delta.resolved.size() << " resolved";
}

// ----------------------------------------------- certificate mutations

TEST(DeltaChecker, FullCertificateMutationsAreRejectedToo) {
  topo::FatTreeOptions fat;
  fat.leaf_switches = 4;
  fat.hosts_per_leaf = 2;
  topo::Topology t = topo::fat_tree(fat);
  const auto routes0 = routing::compute_updown_routes(t, {}, 1);
  t.disconnect(redundant_wires(t).front());
  const auto routes = routing::compute_updown_routes(t, rooted_at(routes0), 1);

  analysis::AnalysisState state;
  const analysis::AnalysisState::Result honest = state.reanalyze(t, routes);
  const auto paths = routing::route_channel_paths(t, routes);
  analysis::DeltaChecker checker;
  {
    std::vector<std::string> why;
    ASSERT_TRUE(checker.check(t, routes, honest.analysis, honest.delta, &why))
        << (why.empty() ? "" : why.front());
  }
  // Each mutation must fail the from-scratch checker and the DeltaChecker.
  const auto expect_rejected = [&](const std::string& what,
                                   const analysis::AnalysisResult& result) {
    EXPECT_FALSE(analysis::check_deadlock(paths, result.deadlock) &&
                 analysis::check_legality(t, routes, result.legality))
        << what;
    std::vector<std::string> why;
    EXPECT_FALSE(checker.check(t, routes, result, honest.delta, &why)) << what;
    EXPECT_FALSE(why.empty()) << what;
  };
  {
    auto result = honest.analysis;
    std::reverse(result.deadlock.topological_order.begin(),
                 result.deadlock.topological_order.end());
    expect_rejected("permuted order", result);
  }
  {
    auto result = honest.analysis;
    result.deadlock.topological_order.pop_back();
    expect_rejected("truncated order", result);
  }
  {
    auto result = honest.analysis;
    result.deadlock.dependencies -= 1;
    expect_rejected("miscounted dependencies", result);
  }
  {
    auto result = honest.analysis;
    result.legality.routes.front().apex_hop += 1;
    expect_rejected("moved apex hop", result);
  }
  {
    auto result = honest.analysis;
    result.legality.routes.pop_back();
    expect_rejected("dropped legality entry", result);
  }
}

}  // namespace
