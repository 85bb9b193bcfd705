// Tests for the static analyzer (sanlint): the diagnostics registry, the
// legality and deadlock certificates and their independent checkers, the
// well-formedness and route-quality lints, the analyzer facade, and the
// MapCatalog publish gate it feeds.
//
// The load-bearing properties:
//  * certificates round-trip — build over a healthy fabric, re-check from
//    the carried evidence alone, and agree with the dynamic detectors;
//  * an injected down-to-up turn is flagged with its exact hop, at every
//    enforcement layer (analyze(), the CLI's exit-code contract via
//    exit_code(), and the catalog gate);
//  * a dependency cycle produces a concrete counterexample, not just a
//    boolean;
//  * the SL403 pin: structural root concentration on the paper's NOW
//    fabric stays quiet (it is a property of UP*/DOWN*, not a defect),
//    while genuine parallel-cable skew fires.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lints.hpp"
#include "common/rng.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/snapshot.hpp"
#include "topology/generators.hpp"

namespace {

using namespace sanmap;

// ---------------------------------------------------------------- registry

TEST(Diagnostics, RegistryIsOrderedAndSelfConsistent) {
  const auto& registry = analysis::code_registry();
  ASSERT_FALSE(registry.empty());
  for (std::size_t i = 1; i < registry.size(); ++i) {
    EXPECT_LT(std::string(registry[i - 1].code), registry[i].code)
        << "registry must stay sorted (codes are append-only per hundred)";
  }
  for (const auto& info : registry) {
    EXPECT_EQ(analysis::find_code(info.code), &info);
  }
  EXPECT_EQ(analysis::find_code("SL999"), nullptr);
}

TEST(Diagnostics, ExitCodeFollowsMaxSeverity) {
  analysis::DiagnosticReport report;
  EXPECT_EQ(report.exit_code(), 0);
  report.add("SL401", "", "info-level finding");
  EXPECT_EQ(report.exit_code(), 0);
  report.add("SL307", "node s1", "isolated");
  EXPECT_EQ(report.exit_code(), 1);
  report.add("SL301", "wire 0", "dangling");
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.infos(), 1u);
}

TEST(Diagnostics, PerCodeCapSuppressesStorageButNotCounting) {
  analysis::DiagnosticReport report;
  report.set_cap(3);
  for (int i = 0; i < 10; ++i) {
    report.add("SL301", "wire " + std::to_string(i), "dangling");
  }
  EXPECT_EQ(report.count("SL301"), 10u);
  EXPECT_EQ(report.errors(), 10u);
  std::size_t stored = 0;
  bool suppression_note = false;
  for (const auto& d : report.diagnostics()) {
    stored += d.code == "SL301" ? 1u : 0u;
    suppression_note = suppression_note || d.code == "SL002";
  }
  EXPECT_EQ(stored, 3u);
  EXPECT_TRUE(suppression_note);
}

TEST(Diagnostics, CapIsStrictlyPerCode) {
  // Regression: the cap (and its SL002 marker) must track each code
  // independently — a flood of SL301 findings must not eat SL303's storage
  // budget, and each flooded code gets its own marker.
  analysis::DiagnosticReport report;
  report.set_cap(3);
  for (int i = 0; i < 10; ++i) {
    report.add("SL301", "wire " + std::to_string(i), "dangling");
    report.add("SL303", "wire " + std::to_string(i), "self-wired");
  }
  report.add("SL307", "node s1", "isolated");  // under cap: untouched
  EXPECT_EQ(report.count("SL301"), 10u);
  EXPECT_EQ(report.count("SL303"), 10u);
  EXPECT_EQ(report.count("SL307"), 1u);
  std::size_t stored301 = 0;
  std::size_t stored303 = 0;
  std::size_t stored307 = 0;
  std::vector<std::string> markers;
  for (const auto& d : report.diagnostics()) {
    stored301 += d.code == "SL301" ? 1u : 0u;
    stored303 += d.code == "SL303" ? 1u : 0u;
    stored307 += d.code == "SL307" ? 1u : 0u;
    if (d.code == "SL002") {
      markers.push_back(d.location);
      EXPECT_EQ(d.message, "further " + d.location +
                               " findings suppressed (7 hidden; count() "
                               "tracks all 10)");
    }
  }
  EXPECT_EQ(stored301, 3u);
  EXPECT_EQ(stored303, 3u);
  EXPECT_EQ(stored307, 1u);
  EXPECT_EQ(markers, (std::vector<std::string>{"SL301", "SL303"}));
}

TEST(Diagnostics, MergeReappliesCapStrictlyPerCode) {
  // Regression: merging must re-apply the per-code cap — findings the
  // source report suppressed stay counted, the destination stores at most
  // cap entries per code, and the marker's arithmetic reflects the merged
  // totals.
  analysis::DiagnosticReport a;
  a.set_cap(3);
  for (int i = 0; i < 6; ++i) {
    a.add("SL301", "wire a" + std::to_string(i), "dangling");
  }
  analysis::DiagnosticReport b;
  b.set_cap(3);
  for (int i = 0; i < 6; ++i) {
    b.add("SL301", "wire b" + std::to_string(i), "dangling");
    b.add("SL304", "node h" + std::to_string(i), "multi-wired host");
  }
  a.merge(b);
  EXPECT_EQ(a.count("SL301"), 12u);
  EXPECT_EQ(a.count("SL304"), 6u);
  EXPECT_EQ(a.errors(), 18u);
  std::size_t stored301 = 0;
  std::size_t stored304 = 0;
  std::string marker301;
  for (const auto& d : a.diagnostics()) {
    stored301 += d.code == "SL301" ? 1u : 0u;
    stored304 += d.code == "SL304" ? 1u : 0u;
    if (d.code == "SL002" && d.location == "SL301") {
      marker301 = d.message;
    }
  }
  EXPECT_EQ(stored301, 3u);
  EXPECT_EQ(stored304, 3u);
  EXPECT_EQ(marker301,
            "further SL301 findings suppressed (9 hidden; count() tracks "
            "all 12)");
}

// ------------------------------------------------------------ certificates

std::vector<topo::Topology> healthy_fabrics() {
  std::vector<topo::Topology> fabrics;
  fabrics.push_back(topo::ring(5, 2));
  fabrics.push_back(topo::mesh(3, 3, 1));
  fabrics.push_back(topo::hypercube(3, 1));
  fabrics.push_back(topo::fat_tree({}));
  fabrics.push_back(topo::now_subcluster(topo::Subcluster::kC, "C"));
  return fabrics;
}

TEST(LegalityCertificate, RoundTripsOnHealthyFabrics) {
  for (const topo::Topology& t : healthy_fabrics()) {
    const auto routes = routing::compute_updown_routes(t, {}, 1);
    const auto cert = analysis::build_legality_certificate(t, routes);
    EXPECT_TRUE(cert.all_legal);
    EXPECT_EQ(cert.routes.size(), routes.routes.size());
    std::vector<std::string> why;
    EXPECT_TRUE(analysis::check_legality(t, routes, cert, &why))
        << (why.empty() ? "" : why.front());
  }
}

TEST(LegalityCertificate, CheckerRejectsTamperedEvidence) {
  const topo::Topology t = topo::ring(4, 2);
  const auto routes = routing::compute_updown_routes(t, {}, 1);
  auto cert = analysis::build_legality_certificate(t, routes);
  ASSERT_FALSE(cert.routes.empty());
  // Claim a healthy route is illegal: the checker must re-derive the truth
  // from the labels, not trust the entry.
  cert.routes.front().legal = false;
  cert.routes.front().offending_hop = 1;
  std::vector<std::string> why;
  EXPECT_FALSE(analysis::check_legality(t, routes, cert, &why));
  EXPECT_FALSE(why.empty());
}

TEST(LegalityCertificate, InjectedTurnIsFlaggedAtItsExactHop) {
  const topo::Topology t = topo::ring(4, 2);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  const std::string injected = analysis::inject_down_up_turn(t, routes);
  ASSERT_FALSE(injected.empty());
  const auto cert = analysis::build_legality_certificate(t, routes);
  EXPECT_FALSE(cert.all_legal);
  int illegal = 0;
  for (const auto& entry : cert.routes) {
    if (!entry.legal) {
      ++illegal;
      // The ring shape detours h -> s -> t -> s -> h2: the return t -> s is
      // hop 2 (0-indexed), and the description names it.
      EXPECT_EQ(entry.offending_hop, 2);
    }
  }
  EXPECT_EQ(illegal, 1);
  EXPECT_NE(injected.find("hop 2"), std::string::npos) << injected;
  // The certificate correctly DESCRIBES the illegal route, so it still
  // verifies: evidence of a violation is valid evidence.
  std::vector<std::string> why;
  EXPECT_TRUE(analysis::check_legality(t, routes, cert, &why))
      << (why.empty() ? "" : why.front());
}

TEST(DeadlockCertificate, AcyclicFabricsCarryATopologicalOrder) {
  for (const topo::Topology& t : healthy_fabrics()) {
    const auto routes = routing::compute_updown_routes(t, {}, 1);
    const auto paths = routing::route_channel_paths(t, routes);
    const auto cert = analysis::build_deadlock_certificate(t, paths);
    EXPECT_TRUE(cert.deadlock_free);
    EXPECT_TRUE(cert.cycle.empty());
    EXPECT_FALSE(cert.topological_order.empty());
    std::vector<std::string> why;
    EXPECT_TRUE(analysis::check_deadlock(paths, cert, &why))
        << (why.empty() ? "" : why.front());
  }
}

TEST(DeadlockCertificate, HandBuiltCycleYieldsACounterexample) {
  // Three channels in a ring of dependencies: 0 -> 1 -> 2 -> 0.
  const topo::Topology t = topo::ring(3, 1);
  const routing::Channel c0{0, true};
  const routing::Channel c1{1, true};
  const routing::Channel c2{2, true};
  const std::vector<std::vector<routing::Channel>> paths = {
      {c0, c1}, {c1, c2}, {c2, c0}};
  const auto cert = analysis::build_deadlock_certificate(t, paths);
  EXPECT_FALSE(cert.deadlock_free);
  ASSERT_GE(cert.cycle.size(), 2u);
  // The counterexample must name real channels of the dependency graph and
  // survive the independent checker.
  std::vector<std::string> why;
  EXPECT_TRUE(analysis::check_deadlock(paths, cert, &why))
      << (why.empty() ? "" : why.front());
  // Tampering with the verdict is caught.
  auto tampered = cert;
  tampered.deadlock_free = true;
  tampered.cycle.clear();
  EXPECT_FALSE(analysis::check_deadlock(paths, tampered, &why));
}

TEST(DeadlockCertificate, AgreesWithBothDynamicDetectorsOnRandomFabrics) {
  // The property behind the fuzzer's analysis_clean oracle, pinned here
  // deterministically: on 200 seeded random topologies the certificate
  // verdict matches routing's DFS 3-coloring detector.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    common::Rng rng(seed);
    const int switches = 3 + static_cast<int>(rng.below(8));
    const int hosts = 2 + static_cast<int>(rng.below(6));
    const int extra = static_cast<int>(rng.below(6));
    const topo::Topology t =
        topo::random_irregular(switches, hosts, extra, rng);
    const auto routes = routing::compute_updown_routes(t, {}, seed);
    const auto paths = routing::route_channel_paths(t, routes);
    const auto dynamic = routing::analyze_channel_paths(t, paths);
    const auto cert = analysis::build_deadlock_certificate(t, paths);
    ASSERT_EQ(cert.deadlock_free, dynamic.deadlock_free)
        << "static/dynamic deadlock verdicts diverge at seed " << seed;
    std::vector<std::string> why;
    ASSERT_TRUE(analysis::check_deadlock(paths, cert, &why))
        << "seed " << seed << ": " << (why.empty() ? "" : why.front());
    const auto legality = analysis::build_legality_certificate(t, routes);
    ASSERT_TRUE(legality.all_legal) << "seed " << seed;
    ASSERT_TRUE(analysis::check_legality(t, routes, legality, &why))
        << "seed " << seed << ": " << (why.empty() ? "" : why.front());
  }
}

// ------------------------------------------------------------------- lints

TEST(FabricLints, CleanViewPasses) {
  const topo::Topology t = topo::mesh(2, 2, 1);
  analysis::DiagnosticReport report;
  analysis::lint_fabric(analysis::view_of(t), report);
  EXPECT_TRUE(report.clean()) << report.text();
}

TEST(FabricLints, HandBrokenViewsAreDiagnosed) {
  const topo::Topology t = topo::mesh(2, 2, 1);
  // Dangling endpoint: point a wire at a node slot that does not exist.
  {
    auto view = analysis::view_of(t);
    view.wires.front().a.node = 999;
    analysis::DiagnosticReport report;
    analysis::lint_fabric(view, report);
    EXPECT_GE(report.count("SL301"), 1u) << report.text();
  }
  // Port out of range for an 8-port crossbar.
  {
    auto view = analysis::view_of(t);
    for (auto& wire : view.wires) {
      if (view.nodes[wire.a.node].kind == topo::NodeKind::kSwitch) {
        wire.a.port = 42;
        break;
      }
    }
    analysis::DiagnosticReport report;
    analysis::lint_fabric(view, report);
    EXPECT_GE(report.count("SL302"), 1u) << report.text();
  }
  // Asymmetric endpoints: the port table no longer matches the wire list.
  {
    auto view = analysis::view_of(t);
    ASSERT_FALSE(view.port_claims.empty());
    view.port_claims.front().second += 1;
    analysis::DiagnosticReport report;
    analysis::lint_fabric(view, report);
    EXPECT_GE(report.count("SL303"), 1u) << report.text();
  }
  // A host with two wires violates the single-interface model.
  {
    auto view = analysis::view_of(t);
    topo::NodeId host = topo::kInvalidNode;
    for (topo::NodeId n = 0; n < view.nodes.size(); ++n) {
      if (view.nodes[n].kind == topo::NodeKind::kHost) {
        host = n;
        break;
      }
    }
    ASSERT_NE(host, topo::kInvalidNode);
    // A host interface has exactly one valid port, so a second wire can
    // only arrive by double-claiming port 0.
    auto extra = view.wires.front();
    extra.a = {host, 0};
    view.wires.push_back(extra);
    view.port_claims.emplace_back(extra.a,
                                  static_cast<topo::WireId>(
                                      view.wires.size() - 1));
    analysis::DiagnosticReport report;
    analysis::lint_fabric(view, report);
    EXPECT_GE(report.count("SL304"), 1u) << report.text();
  }
  // An isolated switch is a warning (dead hardware, not an unsafe map).
  {
    auto view = analysis::view_of(t);
    view.nodes.push_back({topo::NodeKind::kSwitch, "lonely", true});
    analysis::DiagnosticReport report;
    analysis::lint_fabric(view, report);
    EXPECT_GE(report.count("SL307"), 1u) << report.text();
  }
}

TEST(RouteLints, MissingHostPairIsAnError) {
  const topo::Topology t = topo::ring(3, 2);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  ASSERT_FALSE(routes.routes.empty());
  routes.routes.erase(routes.routes.begin());
  analysis::DiagnosticReport report;
  analysis::lint_route_quality(t, routes, {}, report);
  EXPECT_GE(report.count("SL402"), 1u) << report.text();
}

TEST(RouteLints, HopLimitFlagsLongRoutes) {
  const topo::Topology t = topo::ring(6, 1);
  const auto routes = routing::compute_updown_routes(t, {}, 1);
  analysis::LintOptions options;
  options.hop_limit = 2;
  analysis::DiagnosticReport report;
  analysis::lint_route_quality(t, routes, options, report);
  EXPECT_GE(report.count("SL404"), 1u) << report.text();
}

TEST(RouteLints, StructuralRootConcentrationStaysQuiet) {
  // The SL403 pin (found linting the paper's Figure 5 fabric): on the full
  // NOW cluster every cross-subcluster route must climb through the root
  // trunk, so the hottest channel carries ~14x the mean REGARDLESS of the
  // load-balance seed. That concentration is structural to UP*/DOWN*, not
  // an actionable imbalance — the lint must stay quiet.
  const topo::Topology t = topo::now_cluster();
  const auto routes = routing::compute_updown_routes(t, {}, 1);
  analysis::DiagnosticReport report;
  analysis::lint_route_quality(t, routes, {}, report);
  EXPECT_EQ(report.count("SL403"), 0u) << report.text();
}

TEST(RouteLints, ParallelCableSkewFires) {
  // Two switches joined by two parallel cables, three hosts each. Rewrite
  // every route that crosses cable w2 onto w1: the tie-break's work undone,
  // one cable hot and its sibling idle — exactly what SL403 is for.
  topo::Topology t;
  const auto s1 = t.add_switch("s1");
  const auto s2 = t.add_switch("s2");
  const auto w1 = t.connect(s1, 6, s2, 6);
  const auto w2 = t.connect(s1, 7, s2, 7);
  for (int i = 0; i < 3; ++i) {
    const auto h = t.add_host(std::string("a").append(std::to_string(i)));
    t.connect(h, 0, s1, static_cast<topo::Port>(i));
    const auto g = t.add_host(std::string("b").append(std::to_string(i)));
    t.connect(g, 0, s2, static_cast<topo::Port>(i));
  }
  auto routes = routing::compute_updown_routes(t, {}, 1);
  for (auto& [key, route] : routes.routes) {
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      if (route.wires[i] == w2) {
        route.wires[i] = w1;
      }
    }
  }
  analysis::DiagnosticReport report;
  analysis::lint_route_quality(t, routes, {}, report);
  EXPECT_GE(report.count("SL403"), 1u) << report.text();
}

// ---------------------------------------------------------------- analyzer

TEST(Analyzer, HealthyFabricAnalyzesClean) {
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const auto routes = routing::compute_updown_routes(t, {}, 1);
  const auto result = analysis::analyze(t, routes);
  EXPECT_TRUE(result.clean()) << result.report.text();
  EXPECT_TRUE(result.analyzed_routes);
  EXPECT_TRUE(result.legality.all_legal);
  EXPECT_TRUE(result.deadlock.deadlock_free);
  EXPECT_EQ(result.report.exit_code(), 0);
}

TEST(Analyzer, InjectedTurnProducesSL101WithTheHop) {
  const topo::Topology t = topo::ring(4, 2);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  ASSERT_FALSE(analysis::inject_down_up_turn(t, routes).empty());
  const auto result = analysis::analyze(t, routes);
  EXPECT_FALSE(result.clean());
  EXPECT_EQ(result.report.exit_code(), 2);
  ASSERT_GE(result.report.count("SL101"), 1u);
  bool found = false;
  for (const auto& d : result.report.diagnostics()) {
    if (d.code == "SL101") {
      EXPECT_NE(d.location.find("hop 2"), std::string::npos) << d.location;
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Analyzer, JsonCarriesDiagnosticsAndCertificates) {
  const topo::Topology t = topo::ring(4, 2);
  const auto routes = routing::compute_updown_routes(t, {}, 1);
  const std::string json = analysis::to_json(analysis::analyze(t, routes));
  EXPECT_NE(json.find("\"certificates\""), std::string::npos);
  EXPECT_NE(json.find("\"deadlock_free\":true"), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\":0"), std::string::npos);
}

// ------------------------------------------------------------ catalog gate

TEST(CatalogGate, PublishesCleanSnapshots) {
  service::MapCatalog catalog;
  const topo::Topology t = topo::ring(4, 2);
  auto snapshot = service::build_snapshot(t, {}, common::SimTime{});
  const auto result = catalog.publish(std::move(snapshot));
  EXPECT_TRUE(result.published());
  EXPECT_TRUE(result.gate_errors.empty());
}

TEST(CatalogGate, RejectsTamperedRoutesDespiteHealthyFlags) {
  // A snapshot whose build-time verdict says safe but whose route table was
  // corrupted afterwards: the old flag-only gate would wave it through; the
  // full-analyzer gate re-derives the verdict and refuses, naming SL101.
  service::MapCatalog catalog;
  const topo::Topology t = topo::ring(4, 2);
  auto snapshot = service::build_snapshot(t, {}, common::SimTime{});
  ASSERT_TRUE(snapshot.deadlock_free);
  ASSERT_TRUE(snapshot.compliant);
  ASSERT_FALSE(
      analysis::inject_down_up_turn(snapshot.map, snapshot.routes).empty());
  const auto result = catalog.publish(std::move(snapshot));
  EXPECT_FALSE(result.published());
  EXPECT_EQ(result.status,
            service::MapCatalog::PublishStatus::kRejectedUnsafe);
  ASSERT_FALSE(result.gate_errors.empty());
  bool names_sl101 = false;
  for (const auto& d : result.gate_errors) {
    names_sl101 = names_sl101 || d.code == "SL101";
  }
  EXPECT_TRUE(names_sl101);
  EXPECT_EQ(catalog.current(), nullptr);
  EXPECT_EQ(catalog.stats().rejected_unsafe, 1u);
}

}  // namespace
