// UP*/DOWN* routing beyond the emitter itself: agreement of the static
// acyclicity proofs on raw and optimized tables, the RouteOptimizer, and
// the regressions that came with it — SL403 consuming the optimizer's
// cable plan, self_heal_routes escalating on an unroutable partial remap,
// the paranoid gate diffing the certified route set, and the snapshot
// codec's v2 provenance words (optimizer flag round trip, engine word
// refusal, v1 back-compat).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/optimizer.hpp"
#include "routing/route_health.hpp"
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/network.hpp"
#include "topology/generators.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;

bool same_tables(const routing::RoutingResult& a,
                 const routing::RoutingResult& b) {
  if (a.routes.size() != b.routes.size()) {
    return false;
  }
  for (const auto& [key, route] : a.routes) {
    const auto it = b.routes.find(key);
    if (it == b.routes.end() || it->second.nodes != route.nodes ||
        it->second.wires != route.wires || it->second.turns != route.turns) {
      return false;
    }
  }
  return a.meta.cable_plan == b.meta.cable_plan;
}

/// Full certification stack for a table: 3-color DFS acyclicity, order
/// compliance, and both analysis-layer certificates surviving their
/// independent re-checkers.
::testing::AssertionResult certifies(const topo::Topology& t,
                                     const routing::RoutingResult& routes) {
  const auto paths = routing::route_channel_paths(t, routes);
  const auto dfs3 = routing::analyze_channel_paths(t, paths);
  if (!dfs3.deadlock_free) {
    return ::testing::AssertionFailure() << "3-color DFS found a cycle";
  }
  if (!routing::updown_compliant(routes)) {
    return ::testing::AssertionFailure() << "a down-to-up turn slipped in";
  }
  std::vector<std::string> why;
  const auto legality = analysis::build_legality_certificate(t, routes);
  if (!legality.all_legal ||
      !analysis::check_legality(t, routes, legality, &why)) {
    return ::testing::AssertionFailure()
           << "legality certificate failed: "
           << (why.empty() ? "illegal route" : why.front());
  }
  const auto deadlock = analysis::build_deadlock_certificate(t, paths);
  if (!deadlock.deadlock_free ||
      !analysis::check_deadlock(paths, deadlock, &why)) {
    return ::testing::AssertionFailure()
           << "deadlock certificate failed: "
           << (why.empty() ? "cycle recorded" : why.front());
  }
  return ::testing::AssertionSuccess();
}

// The 200-topology property sweep: on raw and optimized UP*/DOWN* tables
// the 3-color DFS verdict must agree with the analyzer's Kahn-based
// DeadlockCertificate, and that certificate must survive its independent
// checker — two acyclicity algorithms, one verdict.
TEST(Routing, AcyclicityProofsAgreeOn200RandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    common::Rng rng(seed);
    // 8 ports a switch: the spanning tree burns 2(s-1) ends and each extra
    // link 2 more, so hosts <= 2s and extras <= s always leave free ports.
    const int switches = static_cast<int>(2 + rng.below(10));
    const int hosts = static_cast<int>(
        2 + rng.below(static_cast<std::uint64_t>(2 * switches - 1)));
    const int extra = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(switches)));
    const topo::Topology t =
        topo::random_irregular(switches, hosts, extra, rng);
    auto routes = routing::compute_updown_routes(t, {}, seed);
    for (const bool optimized : {false, true}) {
      if (optimized) {
        routing::optimize_routes(t, routes);
      }
      const auto paths = routing::route_channel_paths(t, routes);
      const auto dfs3 = routing::analyze_channel_paths(t, paths);
      const analysis::AnalysisResult full = analysis::analyze(t, routes);
      std::vector<std::string> why;
      ASSERT_TRUE(full.analyzed_routes) << "seed " << seed;
      ASSERT_TRUE(dfs3.deadlock_free)
          << "seed " << seed << " optimized " << optimized;
      ASSERT_EQ(dfs3.deadlock_free, full.deadlock.deadlock_free)
          << "seed " << seed << " optimized " << optimized;
      ASSERT_TRUE(analysis::check_deadlock(paths, full.deadlock, &why))
          << "seed " << seed << " optimized " << optimized << ": "
          << (why.empty() ? "?" : why.front());
      ASSERT_TRUE(routing::updown_compliant(routes)) << "seed " << seed;
    }
  }
}

TEST(Optimizer, HoldsSafetyAndNeverWorsensTheMax) {
  const topo::Topology t = topo::now_cluster();
  auto routes = routing::compute_updown_routes(t);
  EXPECT_TRUE(certifies(t, routes));
  const auto report = routing::optimize_routes(t, routes);
  EXPECT_LE(report.max_load_after, report.max_load_before);
  EXPECT_TRUE(routes.meta.optimized);
  EXPECT_TRUE(certifies(t, routes));
}

TEST(Optimizer, IsDeterministic) {
  const topo::Topology t = topo::now_cluster();
  auto a = routing::compute_updown_routes(t);
  auto b = routing::compute_updown_routes(t);
  routing::optimize_routes(t, a);
  routing::optimize_routes(t, b);
  EXPECT_TRUE(same_tables(a, b));
}

TEST(Optimizer, RebalancesASkewedParallelTrunk) {
  // Two switches joined by two cables, three hosts a side: whatever the
  // seed dealt, the optimizer's cable pass must leave the trunk's joint
  // (both-direction) loads within one route of each other.
  topo::Topology t;
  const auto s0 = t.add_switch("s0");
  const auto s1 = t.add_switch("s1");
  const topo::WireId w0 = t.connect(s0, 0, s1, 0);
  const topo::WireId w1 = t.connect(s0, 1, s1, 1);
  for (int i = 0; i < 3; ++i) {
    t.connect(t.add_host("a" + std::to_string(i)), 0, s0,
              static_cast<topo::Port>(2 + i));
    t.connect(t.add_host("b" + std::to_string(i)), 0, s1,
              static_cast<topo::Port>(2 + i));
  }
  auto routes = routing::compute_updown_routes(t);
  routing::optimize_routes(t, routes);
  EXPECT_TRUE(certifies(t, routes));
  std::size_t joint0 = 0;
  std::size_t joint1 = 0;
  for (const auto& [key, route] : routes.routes) {
    for (const topo::WireId w : route.wires) {
      if (w == w0) {
        ++joint0;
      }
      if (w == w1) {
        ++joint1;
      }
    }
  }
  const std::size_t hi = std::max(joint0, joint1);
  const std::size_t lo = std::min(joint0, joint1);
  EXPECT_LE(hi - lo, 1u) << "trunk skew " << joint0 << " vs " << joint1;
  // And the optimizer re-declared its deal so SL403 audits intent.
  EXPECT_EQ(routes.meta.cable_plan.size(), 4u);
}

// Regression (SL403): the skew lint used to re-derive a per-direction
// uniformity expectation from the route table even when the optimizer
// declared a per-group assignment. A deliberately direction-split deal —
// all a->b traffic on one cable, all b->a on its sibling — is jointly
// balanced, yet the recomputed heuristic flagged it. The lint must consume
// the declared group metadata instead.
TEST(Lints, Sl403ConsumesTheDeclaredCablePlan) {
  topo::Topology t;
  const auto s0 = t.add_switch("s0");
  const auto s1 = t.add_switch("s1");
  const topo::WireId w0 = t.connect(s0, 0, s1, 0);
  const topo::WireId w1 = t.connect(s0, 1, s1, 1);
  for (int i = 0; i < 3; ++i) {
    t.connect(t.add_host("a" + std::to_string(i)), 0, s0,
              static_cast<topo::Port>(2 + i));
    t.connect(t.add_host("b" + std::to_string(i)), 0, s1,
              static_cast<topo::Port>(2 + i));
  }
  auto routes = routing::compute_updown_routes(t);
  // Force the direction split: every s0->s1 crossing rides w0, every
  // s1->s0 crossing rides w1.
  for (auto& [key, route] : routes.routes) {
    for (std::size_t h = 0; h < route.wires.size(); ++h) {
      if (route.wires[h] != w0 && route.wires[h] != w1) {
        continue;
      }
      const bool s0_to_s1 = route.nodes[h] == s0;
      route.wires[h] = s0_to_s1 ? w0 : w1;
    }
    routing::recompute_turns(t, route);
  }
  // Declare the split as the table's plan (9 routes per direction).
  const auto count = [&](topo::WireId w, bool a_to_b) {
    std::size_t n = 0;
    for (const auto& [key, route] : routes.routes) {
      for (std::size_t h = 0; h < route.wires.size(); ++h) {
        const topo::Wire& wire = t.wire(route.wires[h]);
        if (route.wires[h] == w && (wire.a.node == route.nodes[h]) == a_to_b) {
          ++n;
        }
      }
    }
    return n;
  };
  for (const topo::WireId w : {w0, w1}) {
    routes.meta.cable_plan[{w, true}] = count(w, true);
    routes.meta.cable_plan[{w, false}] = count(w, false);
  }

  const auto count_sl403 = [](const analysis::AnalysisResult& r) {
    std::size_t n = 0;
    for (const auto& d : r.report.diagnostics()) {
      if (d.code == "SL403") {
        ++n;
      }
    }
    return n;
  };
  // Plan-aware: jointly balanced, no finding.
  EXPECT_EQ(count_sl403(analysis::analyze(t, routes)), 0u);

  // Fail-before-fix: without the plan the historical per-direction
  // heuristic (the only path the old lint ever took) flags the split.
  auto unplanned = routes;
  unplanned.meta.cable_plan.clear();
  EXPECT_GT(count_sl403(analysis::analyze(t, unplanned)), 0u);

  // And a table that diverges from its declared plan is a finding again.
  auto diverged = routes;
  diverged.meta.cable_plan[{w0, true}] += 3;
  EXPECT_GT(count_sl403(analysis::analyze(t, diverged)), 0u);
}

// Regression: self_heal_routes assumed every remap produced a map the
// router could accept. A partial remap of a quarantined region (here: the
// severed s3 leaf of the quarantined-region corpus case, with the core —
// master included — missing) used to crash through the orientation's
// connectivity SANMAP_CHECK; it must escalate to a full recompute instead.
TEST(SelfHeal, EscalatesAnUnroutablePartialRemap) {
  const verify::ScenarioCase scenario = verify::read_case_file(
      std::string(SANMAP_CORPUS_DIR) + "/quarantined-region.sancase");
  const simnet::FaultSchedule schedule = scenario.schedule();
  simnet::Network net(scenario.network, scenario.collision);
  net.attach_faults(&schedule);

  // The severed region alone: s3 + its hosts. No master, not even the
  // core — exactly what a region-scoped remap would hand back.
  topo::Topology region = scenario.network;
  for (const topo::NodeId n : scenario.network.nodes()) {
    const std::string& name = scenario.network.name(n);
    if (name != "s3" && name != "h3" && name != "h4") {
      region.remove_node(n);
    }
  }
  // The full recompute: the core without the quarantined region (the
  // fabric as a fresh master session would map it mid-outage).
  topo::Topology core = scenario.network;
  for (const topo::NodeId n : scenario.network.nodes()) {
    const std::string& name = scenario.network.name(n);
    if (name == "s3" || name == "h3" || name == "h4") {
      core.remove_node(n);
    }
  }

  routing::SelfHealConfig config;
  config.master_name = "h0";
  int remaps = 0;
  const auto remap = [&](common::SimTime& clock) {
    clock += common::SimTime::ms(1);
    ++remaps;
    return remaps == 1 ? region : core;
  };
  // Start mid-outage (the uplink dies at 5ms, returns at 500ms).
  const auto result =
      routing::self_heal_routes(net, scenario.network, config, remap,
                                common::SimTime::ms(10));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.escalated_remaps, 1u);
  EXPECT_EQ(remaps, 2);
  EXPECT_GT(result.total_broken, 0u);
  EXPECT_FALSE(result.map.find_host("h3").has_value());
}

// Regression: the paranoid gate's comparator matched only the aggregate
// verdict (diagnostics + flags + labels), so an incremental pass that
// certified a different route set with the same summary sailed through.
// The certified per-route entries and the certifying root must be diffed
// too.
TEST(ParanoidGate, ComparatorDiffsTheCertifiedRouteSet) {
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const auto routes = routing::compute_updown_routes(t);
  const analysis::AnalysisResult a = analysis::analyze(t, routes);
  ASSERT_TRUE(a.analyzed_routes);
  ASSERT_FALSE(a.legality.routes.empty());

  analysis::AnalysisResult b = a;
  EXPECT_TRUE(service::equivalent_verdicts(a, b));

  b.legality.routes[0].apex_hop += 1;
  EXPECT_FALSE(service::equivalent_verdicts(a, b));

  b = a;
  b.legality.routes[0].legal = false;
  b.legality.routes[0].offending_hop = 0;
  EXPECT_FALSE(service::equivalent_verdicts(a, b));

  b = a;
  b.legality.routes.pop_back();
  EXPECT_FALSE(service::equivalent_verdicts(a, b));

  b = a;
  b.legality.root += 1;
  EXPECT_FALSE(service::equivalent_verdicts(a, b));
}

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint8_t>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr std::size_t kHeader = 8 + 4 + 8 + 8;

std::uint32_t u32_at(const std::string& bytes, std::size_t pos) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }
}

/// Offset of the v2 engine word: past epoch + created + seed, then the two
/// length-prefixed strings root_name and source.
std::size_t engine_word_at(const std::string& bytes) {
  std::size_t pos = kHeader + 8 + 8 + 8;
  pos += 4 + u32_at(bytes, pos);  // root_name
  pos += 4 + u32_at(bytes, pos);  // source
  return pos;
}

/// Rewrites the header so version, size, and checksum agree with an edited
/// payload — the edit must be refused on its content, not on bit rot.
void reseal(std::string& bytes, std::uint32_t version) {
  put_u32(bytes, 8, version);
  put_u64(bytes, 12, bytes.size() - kHeader);
  put_u64(bytes, 20, fnv1a(bytes.data() + kHeader, bytes.size() - kHeader));
}

std::string encoded_fig4(const service::SnapshotOptions& options) {
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  return service::encode_snapshot(
      service::build_snapshot(t, options, common::SimTime::ms(7)));
}

TEST(SnapshotCodec, V2RoundTripsTheOptimizerFlag) {
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  service::SnapshotOptions options;
  options.optimize = true;
  options.source = "test";
  const service::MapSnapshot snapshot =
      service::build_snapshot(t, options, common::SimTime::ms(7));
  EXPECT_TRUE(snapshot.deadlock_free);
  EXPECT_TRUE(snapshot.compliant);
  EXPECT_TRUE(snapshot.routes.meta.optimized);

  const std::string bytes = service::encode_snapshot(snapshot);
  EXPECT_EQ(u32_at(bytes, engine_word_at(bytes)), 0u);
  const service::MapSnapshot decoded = service::decode_snapshot(bytes);
  EXPECT_TRUE(decoded.options.optimize);
  EXPECT_TRUE(decoded.routes.meta.optimized);
  EXPECT_EQ(decoded.routes.routes.size(), snapshot.routes.routes.size());
  EXPECT_EQ(decoded.routes.meta.cable_plan, snapshot.routes.meta.cable_plan);
}

TEST(SnapshotCodec, RefusesATableItCannotReproduce) {
  // A checksummed v2 payload naming engine 1 (the retired DFS engine):
  // this build has no such router, so decoding must refuse it instead of
  // recomputing an UP*/DOWN* table under the wrong name.
  std::string bytes = encoded_fig4({});
  const std::size_t at = engine_word_at(bytes);
  put_u32(bytes, at, 1);
  reseal(bytes, 2);
  try {
    (void)service::decode_snapshot(bytes);
    FAIL() << "engine word 1 decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "snapshot: unsupported routing engine 1");
  }

  // The optimizer flag is a boolean byte; anything but 0/1 is refused.
  bytes = encoded_fig4({});
  bytes[at + 4] = 2;
  reseal(bytes, 2);
  EXPECT_THROW((void)service::decode_snapshot(bytes), std::runtime_error);
}

TEST(SnapshotCodec, DecodesV1PayloadsWithDefaultProvenance) {
  // A v1 payload is the v2 payload minus the engine (u32) + optimize (u8)
  // bytes after `source`; splice them out of a default-options encoding and
  // rewrite the header so version, size, and checksum agree.
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const service::MapSnapshot snapshot =
      service::build_snapshot(t, {}, common::SimTime::ms(3));
  std::string bytes = service::encode_snapshot(snapshot);
  bytes.erase(engine_word_at(bytes), 5);
  reseal(bytes, 1);

  const service::MapSnapshot decoded = service::decode_snapshot(bytes);
  EXPECT_FALSE(decoded.options.optimize);
  EXPECT_EQ(decoded.routes.routes.size(), snapshot.routes.routes.size());
}

}  // namespace
