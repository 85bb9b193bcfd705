// Tests for the static analyzer (sanlint): the diagnostics registry, the
// legality and deadlock certificates and their independent checkers, the
// well-formedness and route-quality lints and the analyzer facade (the
// MapCatalog publish gate it feeds is tested in service_test).
//
// The load-bearing properties:
//  * certificates round-trip — build over a healthy fabric, re-check from
//    the carried evidence alone, and agree with the dynamic detectors;
//  * an injected down-to-up turn is flagged with its exact hop, at every
//    enforcement layer (analyze() and the CLI's exit-code contract via
//    exit_code());
//  * a dependency cycle produces a concrete counterexample, not just a
//    boolean;
//  * the SL403 pin: structural root concentration on the paper's NOW
//    fabric stays quiet (it is a property of UP*/DOWN*, not a defect),
//    while genuine parallel-cable skew fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lints.hpp"
#include "common/check.hpp"
#include "common/pair_set.hpp"
#include "common/rng.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
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
  routing::ChannelPaths paths;
  paths.add({c0, c1});
  paths.add({c1, c2});
  paths.add({c2, c0});
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

// A copy of the std::set-based deadlock certificate builder and
// checker the analyzer shipped before they moved to per-channel vectors.
// The differential test below holds the production pair to it.
namespace reference {

using routing::channel_from_id;
using routing::channel_id;

void explain(std::vector<std::string>* why, const std::string& line) {
  if (why != nullptr) {
    why->push_back(line);
  }
}

std::vector<std::set<std::size_t>> dependency_edges(
    const routing::ChannelPaths& paths, std::size_t num_channels) {
  std::vector<std::set<std::size_t>> deps(num_channels);
  for (std::size_t r = 0; r < paths.size(); ++r) {
    const auto path = paths[r];
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      deps[path[i]].insert(path[i + 1]);
    }
  }
  return deps;
}

analysis::DeadlockCertificate build(const topo::Topology& topo,
                                    const routing::ChannelPaths& paths) {
  const std::size_t num_channels = topo.wire_capacity() * 2;
  const auto deps = dependency_edges(paths, num_channels);

  analysis::DeadlockCertificate cert;
  cert.channels = num_channels;
  std::vector<std::size_t> in_degree(num_channels, 0);
  std::vector<bool> participates(num_channels, false);
  for (std::size_t from = 0; from < num_channels; ++from) {
    for (const std::size_t to : deps[from]) {
      ++in_degree[to];
      ++cert.dependencies;
      participates[from] = true;
      participates[to] = true;
    }
  }

  // Kahn elimination in ascending-id order (deterministic certificates).
  std::deque<std::size_t> ready;
  for (std::size_t c = 0; c < num_channels; ++c) {
    if (participates[c] && in_degree[c] == 0) {
      ready.push_back(c);
    }
  }
  std::vector<bool> eliminated(num_channels, false);
  std::size_t remaining = 0;
  for (std::size_t c = 0; c < num_channels; ++c) {
    remaining += participates[c] ? 1u : 0u;
  }
  while (!ready.empty()) {
    const std::size_t c = ready.front();
    ready.pop_front();
    eliminated[c] = true;
    --remaining;
    cert.topological_order.push_back(channel_from_id(c));
    for (const std::size_t to : deps[c]) {
      if (--in_degree[to] == 0) {
        ready.push_back(to);
      }
    }
  }
  if (remaining == 0) {
    cert.deadlock_free = true;
    return cert;
  }

  // A cycle survives elimination. The residual set also holds "tails" —
  // channels downstream of a cycle with no residual successor of their own
  // (Kahn never freed them, but they cannot sit on a cycle). Peel them by
  // reverse-Kahn on residual out-degree so the walk below always has a
  // successor to follow.
  cert.deadlock_free = false;
  cert.topological_order.clear();
  {
    std::vector<std::size_t> out_degree(num_channels, 0);
    std::vector<std::vector<std::size_t>> preds(num_channels);
    for (std::size_t from = 0; from < num_channels; ++from) {
      if (eliminated[from] || !participates[from]) {
        continue;
      }
      for (const std::size_t to : deps[from]) {
        if (!eliminated[to]) {
          ++out_degree[from];
          preds[to].push_back(from);
        }
      }
    }
    std::deque<std::size_t> dead_ends;
    for (std::size_t c = 0; c < num_channels; ++c) {
      if (participates[c] && !eliminated[c] && out_degree[c] == 0) {
        dead_ends.push_back(c);
      }
    }
    while (!dead_ends.empty()) {
      const std::size_t c = dead_ends.front();
      dead_ends.pop_front();
      eliminated[c] = true;
      for (const std::size_t from : preds[c]) {
        if (!eliminated[from] && --out_degree[from] == 0) {
          dead_ends.push_back(from);
        }
      }
    }
  }
  std::size_t start = 0;
  while (start < num_channels && (!participates[start] || eliminated[start])) {
    ++start;
  }
  SANMAP_CHECK_MSG(start < num_channels, "cyclic graph peeled to nothing");
  // Walk successors inside the residual set until a channel repeats; the
  // walk from the repeat point is the cycle.
  std::vector<std::size_t> walk;
  std::vector<int> seen_at(num_channels, -1);
  std::size_t at = start;
  while (seen_at[at] == -1) {
    seen_at[at] = static_cast<int>(walk.size());
    walk.push_back(at);
    std::size_t next = num_channels;
    for (const std::size_t to : deps[at]) {
      if (!eliminated[to]) {
        next = to;
        break;
      }
    }
    SANMAP_CHECK_MSG(next < num_channels,
                     "residual channel with no residual successor");
    at = next;
  }
  const auto cycle_start = static_cast<std::size_t>(seen_at[at]);
  for (std::size_t i = cycle_start; i < walk.size(); ++i) {
    cert.cycle.push_back(channel_from_id(walk[i]));
  }
  return cert;
}

bool check(const routing::ChannelPaths& paths,
           const analysis::DeadlockCertificate& cert,
           std::vector<std::string>* why) {
  // Re-derive the dependency edges; the checker trusts only the paths.
  std::set<std::pair<std::size_t, std::size_t>> edges;
  std::size_t max_id = 0;
  for (std::size_t r = 0; r < paths.size(); ++r) {
    const auto path = paths[r];
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::size_t from = path[i];
      const std::size_t to = path[i + 1];
      edges.insert({from, to});
      max_id = std::max({max_id, from, to});
    }
  }
  if (cert.dependencies != edges.size()) {
    explain(why, "certificate counts " + std::to_string(cert.dependencies) +
                     " dependencies, paths derive " +
                     std::to_string(edges.size()));
    return false;
  }

  if (cert.deadlock_free) {
    std::vector<std::size_t> position(max_id + 1,
                                      std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < cert.topological_order.size(); ++i) {
      const std::size_t id = channel_id(cert.topological_order[i]);
      if (id <= max_id && position[id] !=
                              std::numeric_limits<std::size_t>::max()) {
        explain(why, "channel repeats in the topological order");
        return false;
      }
      if (id <= max_id) {
        position[id] = i;
      }
    }
    for (const auto& [from, to] : edges) {
      const std::size_t pf = position[from];
      const std::size_t pt = position[to];
      if (pf == std::numeric_limits<std::size_t>::max() ||
          pt == std::numeric_limits<std::size_t>::max()) {
        explain(why, "a dependent channel is missing from the order");
        return false;
      }
      if (pf >= pt) {
        explain(why, "dependency " +
                         analysis::to_string(channel_from_id(from)) + " -> " +
                         analysis::to_string(channel_from_id(to)) +
                         " points backward in the order");
        return false;
      }
    }
    return true;
  }

  if (cert.cycle.empty()) {
    explain(why, "cyclic verdict carries no counterexample");
    return false;
  }
  for (std::size_t i = 0; i < cert.cycle.size(); ++i) {
    const std::size_t from = channel_id(cert.cycle[i]);
    const std::size_t to =
        channel_id(cert.cycle[(i + 1) % cert.cycle.size()]);
    if (edges.find({from, to}) == edges.end()) {
      explain(why, "counterexample edge " +
                       analysis::to_string(channel_from_id(from)) + " -> " +
                       analysis::to_string(channel_from_id(to)) +
                       " is not a real dependency");
      return false;
    }
  }
  return true;
}

/// Routing's three-colour DFS as it shipped with a linear find over each
/// successor list, for the differential test below.
routing::DeadlockAnalysis dfs(const topo::Topology& topo,
                              const routing::ChannelPaths& paths) {
  const std::size_t num_channels = topo.wire_capacity() * 2;
  std::vector<std::vector<std::size_t>> deps(num_channels);
  std::size_t dependency_count = 0;
  for (std::size_t r = 0; r < paths.size(); ++r) {
    const auto path = paths[r];
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      auto& list = deps[path[i]];
      if (std::find(list.begin(), list.end(), path[i + 1]) == list.end()) {
        list.push_back(path[i + 1]);
        ++dependency_count;
      }
    }
  }
  routing::DeadlockAnalysis result;
  result.channels = num_channels;
  result.dependencies = dependency_count;
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(num_channels, kWhite);
  for (std::size_t start = 0; start < num_channels; ++start) {
    if (color[start] != kWhite) {
      continue;
    }
    struct Frame {
      std::size_t node;
      std::size_t next_child = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_child < deps[frame.node].size()) {
        const std::size_t child = deps[frame.node][frame.next_child++];
        if (color[child] == kGray) {
          std::vector<routing::Channel> cycle;
          cycle.push_back(channel_from_id(child));
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            cycle.push_back(channel_from_id(it->node));
            if (it->node == child) {
              break;
            }
          }
          std::reverse(cycle.begin(), cycle.end());
          result.cycle = std::move(cycle);
          return result;
        }
        if (color[child] == kWhite) {
          color[child] = kGray;
          stack.push_back(Frame{child, 0});
        }
      } else {
        color[frame.node] = kBlack;
        stack.pop_back();
      }
    }
  }
  result.deadlock_free = true;
  return result;
}

}  // namespace reference

/// Random path sets over `t`'s channels: the UP*/DOWN* table's own paths,
/// the same with an injected down-to-up detour, and random channel walks
/// (mostly cyclic).
std::vector<routing::ChannelPaths> random_path_sets(const topo::Topology& t,
                                                    std::uint64_t seed,
                                                    common::Rng& rng) {
  std::vector<routing::ChannelPaths> sets;
  auto routes = routing::compute_updown_routes(t, {}, seed);
  sets.push_back(routing::route_channel_paths(t, routes));
  if (!analysis::inject_down_up_turn(t, routes).empty()) {
    sets.push_back(routing::route_channel_paths(t, routes));
  }
  const auto wires = t.wires();
  routing::ChannelPaths walks;
  const std::size_t count = 1 + rng.below(12);
  for (std::size_t p = 0; p < count; ++p) {
    std::vector<routing::Channel> walk;
    const std::size_t length = rng.below(6);
    for (std::size_t i = 0; i < length; ++i) {
      walk.push_back(routing::Channel{rng.pick(wires), rng.below(2) == 1});
    }
    walks.add(walk);
  }
  sets.push_back(std::move(walks));
  return sets;
}

/// Certificates a checker must judge exactly as the reference does: the
/// honest one and a spread of tampered ones.
std::vector<analysis::DeadlockCertificate> mutations(
    const analysis::DeadlockCertificate& cert) {
  std::vector<analysis::DeadlockCertificate> out;
  auto m = cert;
  m.deadlock_free = !m.deadlock_free;
  out.push_back(m);
  m = cert;
  ++m.dependencies;
  out.push_back(m);
  if (cert.dependencies > 0) {
    m = cert;
    --m.dependencies;
    out.push_back(m);
  }
  auto& order = cert.topological_order;
  if (order.size() >= 2) {
    m = cert;
    std::swap(m.topological_order.front(), m.topological_order.back());
    out.push_back(m);
    m = cert;
    m.topological_order.pop_back();
    out.push_back(m);
    m = cert;
    m.topological_order.push_back(order.front());
    out.push_back(m);
    m = cert;
    std::reverse(m.topological_order.begin(), m.topological_order.end());
    out.push_back(m);
  }
  m = cert;
  m.topological_order.push_back(routing::Channel{100000, true});
  out.push_back(m);
  if (!cert.cycle.empty()) {
    m = cert;
    std::reverse(m.cycle.begin(), m.cycle.end());
    out.push_back(m);
    m = cert;
    m.cycle.pop_back();
    out.push_back(m);
    m = cert;
    m.cycle.front() = routing::Channel{100000, false};
    out.push_back(m);
    m = cert;
    m.cycle.clear();
    out.push_back(m);
  }
  return out;
}

/// Two-channel paths between random channels of `t`, mostly far apart:
/// `pairs` draws, so the distinct dependencies outgrow the pair set's first
/// capacity. With `forward_only` each path ascends in channel id, which
/// keeps the dependency graph acyclic.
routing::ChannelPaths random_channel_pairs(const topo::Topology& t,
                                           std::size_t pairs,
                                           bool forward_only,
                                           common::Rng& rng) {
  const auto wires = t.wires();
  routing::ChannelPaths paths;
  for (std::size_t p = 0; p < pairs; ++p) {
    routing::Channel a{rng.pick(wires), rng.below(2) == 1};
    routing::Channel b{rng.pick(wires), rng.below(2) == 1};
    if (forward_only && routing::channel_id(b) <= routing::channel_id(a)) {
      if (a == b) {
        continue;
      }
      std::swap(a, b);
    }
    paths.add({a, b});
  }
  return paths;
}

TEST(DeadlockCertificate, MatchesTheSetBasedReferenceOnRandomPathSets) {
  std::size_t cyclic = 0;
  std::size_t acyclic = 0;
  std::size_t rejected = 0;
  std::size_t past_first_capacity = 0;
  // Every path set is checked twice over: the certificate builder and
  // checker against the set-based reference, and routing's DFS against
  // the linear-find reference (verdict, dependency count, witness cycle).
  const auto check_set = [&](const topo::Topology& t,
                             const routing::ChannelPaths& paths,
                             std::uint64_t seed) {
    const auto dfs_want = reference::dfs(t, paths);
    const auto dfs_got = routing::analyze_channel_paths(t, paths);
    ASSERT_EQ(dfs_got.deadlock_free, dfs_want.deadlock_free) << "seed " << seed;
    ASSERT_EQ(dfs_got.channels, dfs_want.channels) << "seed " << seed;
    ASSERT_EQ(dfs_got.dependencies, dfs_want.dependencies) << "seed " << seed;
    ASSERT_EQ(dfs_got.cycle, dfs_want.cycle) << "seed " << seed;
    past_first_capacity +=
        dfs_got.dependencies > common::PairSet::kInitialCapacity ? 1u : 0u;

    const auto want = reference::build(t, paths);
    const auto got = analysis::build_deadlock_certificate(t, paths);
    ASSERT_EQ(got.deadlock_free, want.deadlock_free) << "seed " << seed;
    ASSERT_EQ(got.channels, want.channels) << "seed " << seed;
    ASSERT_EQ(got.dependencies, want.dependencies) << "seed " << seed;
    ASSERT_EQ(got.topological_order, want.topological_order)
        << "seed " << seed;
    ASSERT_EQ(got.cycle, want.cycle) << "seed " << seed;
    (want.deadlock_free ? acyclic : cyclic) += 1;

    std::vector<std::string> why;
    ASSERT_TRUE(analysis::check_deadlock(paths, got, &why))
        << "seed " << seed << ": " << (why.empty() ? "" : why.front());
    for (const auto& tampered : mutations(want)) {
      std::vector<std::string> why_want;
      std::vector<std::string> why_got;
      const bool ok_want = reference::check(paths, tampered, &why_want);
      const bool ok_got =
          analysis::check_deadlock(paths, tampered, &why_got);
      ASSERT_EQ(ok_got, ok_want) << "seed " << seed;
      ASSERT_EQ(why_got, why_want) << "seed " << seed;
      rejected += ok_got ? 0u : 1u;
    }
  };
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    common::Rng rng(seed);
    const int switches = 3 + static_cast<int>(rng.below(8));
    const int hosts = 2 + static_cast<int>(rng.below(6));
    const int extra = static_cast<int>(rng.below(6));
    const topo::Topology t =
        topo::random_irregular(switches, hosts, extra, rng);
    for (const auto& paths : random_path_sets(t, seed, rng)) {
      check_set(t, paths, seed);
    }
  }
  // Thousands of distinct dependencies on a fabric of over a thousand
  // wires: the pair set grows several times on the way.
  const topo::Topology big = topo::torus(24, 24, 1);
  ASSERT_GE(big.num_wires(), 1000u);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    common::Rng rng(seed);
    check_set(big, random_channel_pairs(big, 3000, seed % 2 == 0, rng), seed);
  }
  // The sweep must exercise both verdicts and real rejections.
  EXPECT_GT(cyclic, 50u);
  EXPECT_GT(acyclic, 150u);
  EXPECT_GT(rejected, 1000u);
  EXPECT_EQ(past_first_capacity, 4u);
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

// Structural lints (SL102..SL105), one corrupted route at a time. The
// fabric is ring(4, 2) plus a loopback cable on r1 (wire 12, never routed):
// switches r0..r3 are nodes 0..3, ring wire i joins r<i> port 0 to
// r<i+1> port 1, and hosts h0..h7 (nodes 4..11) hang off wires 4..11.
// Locations and messages are pinned verbatim.
class StructureLints : public ::testing::Test {
 protected:
  StructureLints()
      : fabric_(loop_ring()),
        table_(routing::compute_updown_routes(fabric_, {}, 1)) {}

  static topo::Topology loop_ring() {
    topo::Topology t = topo::ring(4, 2);
    t.connect(1, 6, 1, 7);
    return t;
  }

  /// The route under test: h0 -> h4, h0 on r0 and h4 on r2.
  routing::HostRoute base() const { return table_.route(4, 8); }

  /// Lints `route` as the only entry of a table keyed (src, dst) and
  /// renders each finding as "code|location|message".
  std::vector<std::string> findings(const topo::Topology& t,
                                    const routing::HostRoute& route,
                                    topo::NodeId src = 4,
                                    topo::NodeId dst = 8) const {
    routing::RoutingResult one = table_;
    one.routes.clear();
    one.routes.emplace(std::make_pair(src, dst), route);
    analysis::DiagnosticReport report;
    const bool sound = analysis::lint_route_structure(t, one, report);
    std::vector<std::string> out;
    for (const auto& d : report.diagnostics()) {
      out.push_back(d.code + "|" + d.location + "|" + d.message);
    }
    EXPECT_EQ(sound, out.empty());
    return out;
  }

  topo::Topology fabric_;
  routing::RoutingResult table_;
};

TEST_F(StructureLints, TheBaseRouteIsSound) {
  const routing::HostRoute route = base();
  EXPECT_EQ(route.nodes, (std::vector<topo::NodeId>{4, 0, 1, 2, 8}));
  EXPECT_EQ(route.wires, (std::vector<topo::WireId>{4, 0, 1, 8}));
  EXPECT_EQ(route.turns, (simnet::Route{-2, -1, 1}));
  EXPECT_TRUE(findings(fabric_, route).empty());
}

TEST_F(StructureLints, DeadEndpointIsSL102) {
  topo::Topology t = fabric_;
  t.remove_node(8);  // h4, and with it wire 8
  EXPECT_EQ(findings(t, base()),
            (std::vector<std::string>{
                "SL102|route h0->node 8|endpoint 8 is not a live host",
                "SL103|route h0->node 8 hop 3|wire 8 is dead or nonexistent"}));
}

TEST_F(StructureLints, SwitchEndpointIsSL102AndBadShape) {
  EXPECT_EQ(findings(fabric_, base(), 4, 2),
            (std::vector<std::string>{
                "SL102|route h0->r2|endpoint 2 is not a live host",
                "SL103|route h0->r2|path shape is inconsistent (5 nodes, 4 "
                "wires)"}));
}

TEST_F(StructureLints, BadShapeIsSL103) {
  routing::HostRoute route = base();
  route.wires.pop_back();
  EXPECT_EQ(findings(fabric_, route),
            (std::vector<std::string>{
                "SL103|route h0->h4|path shape is inconsistent (5 nodes, 3 "
                "wires)"}));
}

TEST_F(StructureLints, DeadWireIsSL103AtItsHop) {
  routing::HostRoute route = base();
  route.wires[1] = 999;
  EXPECT_EQ(findings(fabric_, route),
            (std::vector<std::string>{
                "SL103|route h0->h4 hop 1|wire 999 is dead or nonexistent"}));
}

TEST_F(StructureLints, NonConnectingWireIsSL103AtItsHop) {
  routing::HostRoute route = base();
  route.wires[2] = 3;  // r3 <-> r0, not r1 -> r2
  EXPECT_EQ(findings(fabric_, route),
            (std::vector<std::string>{
                "SL103|route h0->h4 hop 2|wire 3 does not connect r1 to r2"}));
}

TEST_F(StructureLints, SelfLoopCableIsSL104) {
  routing::HostRoute route = base();
  route.wires[2] = 12;
  EXPECT_EQ(findings(fabric_, route),
            (std::vector<std::string>{
                "SL104|route h0->h4 hop 2|wire 12 is a self-loop cable"}));
}

TEST_F(StructureLints, WrongTurnWordIsSL105) {
  routing::HostRoute route = base();
  route.turns[1] += 1;
  EXPECT_EQ(findings(fabric_, route),
            (std::vector<std::string>{
                "SL105|route h0->h4|turn word -2.+0.+1 does not reproduce "
                "the hop path (expected -2.-1.+1)"}));
}

TEST_F(StructureLints, ShortTurnWordIsSL105) {
  routing::HostRoute route = base();
  route.turns.pop_back();
  EXPECT_EQ(findings(fabric_, route),
            (std::vector<std::string>{
                "SL105|route h0->h4|turn word -2.-1 does not reproduce the "
                "hop path (expected -2.-1.+1)"}));
}

TEST(RouteLints, MissingHostPairIsAnError) {
  const topo::Topology t = topo::ring(3, 2);
  auto routes = routing::compute_updown_routes(t, {}, 1);
  ASSERT_FALSE(routes.routes.empty());
  routes.routes.erase(routes.routes.begin());
  analysis::DiagnosticReport report;
  analysis::lint_route_quality(
      t, routes, routing::route_channel_paths(t, routes), {}, report);
  EXPECT_GE(report.count("SL402"), 1u) << report.text();
}

TEST(RouteLints, HopLimitFlagsLongRoutes) {
  const topo::Topology t = topo::ring(6, 1);
  const auto routes = routing::compute_updown_routes(t, {}, 1);
  analysis::LintOptions options;
  options.hop_limit = 2;
  analysis::DiagnosticReport report;
  analysis::lint_route_quality(
      t, routes, routing::route_channel_paths(t, routes), options, report);
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
  analysis::lint_route_quality(
      t, routes, routing::route_channel_paths(t, routes), {}, report);
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
  analysis::lint_route_quality(
      t, routes, routing::route_channel_paths(t, routes), {}, report);
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

}  // namespace
