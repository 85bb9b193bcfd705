// UP*/DOWN* routing beyond the emitter itself: agreement of the static
// acyclicity proofs on raw and optimized tables, the RouteOptimizer, and
// the regressions that came with it — SL403 consuming the optimizer's
// cable plan, the refresh loop surviving an unroutable partial remap, and
// the snapshot codec's v2 provenance words (optimizer flag round trip,
// engine word refusal, v1 back-compat) and its route records (any order
// decodes; the record errors keep their wording).
#include <gtest/gtest.h>

#include <algorithm>
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
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/refresh_loop.hpp"
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

// Regression: the self-healing path once assumed every remap produced a map
// the router could accept. A partial remap of a quarantined region (the
// severed s3 leaf of the quarantined-region corpus case, with the core —
// master included — missing) crashed through the orientation's
// connectivity SANMAP_CHECK. The refresh loop is the one self-healing path
// now: while the uplink is down it must keep ticking, and what it
// publishes is the core without the severed leaf.
TEST(RefreshLoop, RemapsAroundASeveredRegionWithoutCrashing) {
  const verify::ScenarioCase scenario = verify::read_case_file(
      std::string(SANMAP_CORPUS_DIR) + "/quarantined-region.sancase");
  const simnet::FaultSchedule schedule = scenario.schedule();
  simnet::Network net(scenario.network, scenario.collision);

  service::MapCatalog catalog;
  service::RefreshConfig config;
  config.master_name = "h0";
  service::RefreshLoop loop(net, catalog, config);
  // Bootstrap on the intact fabric, then play the scenario's outage (the
  // uplink dies at 5ms and returns at 500ms) against the served tables.
  ASSERT_TRUE(loop.bootstrap().swapped());
  ASSERT_TRUE(catalog.current()->map.find_host("h3").has_value());
  const common::SimTime revival = common::SimTime::ms(500);
  ASSERT_LT(loop.now(), revival);
  net.attach_faults(&schedule);
  std::size_t published_mid_outage = 0;
  while (loop.now() < revival) {
    service::TickReport report;
    ASSERT_NO_THROW(report = loop.tick());
    if (report.swapped() && report.at < revival) {
      const service::SnapshotPtr snapshot = catalog.current();
      ASSERT_NE(snapshot, nullptr);
      EXPECT_FALSE(snapshot->map.find_host("h3").has_value());
      EXPECT_TRUE(snapshot->map.find_host("h0").has_value());
      ++published_mid_outage;
    }
  }
  EXPECT_GT(published_mid_outage, 0u);
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

/// Where the encoded route records start, and each record's raw bytes
/// (src name, dst name, turn word).
std::pair<std::size_t, std::vector<std::string>> route_records(
    const std::string& bytes) {
  std::size_t pos = engine_word_at(bytes) + 5;
  pos += 4 + u32_at(bytes, pos);  // map text
  const std::uint32_t count = u32_at(bytes, pos);
  pos += 4;
  const std::size_t first = pos;
  std::vector<std::string> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t start = pos;
    for (int field = 0; field < 3; ++field) {
      pos += 4 + u32_at(bytes, pos);
    }
    records.push_back(bytes.substr(start, pos - start));
  }
  return {first, records};
}

/// The length-prefixed field `index` (0 src, 1 dst, 2 turns) of a record.
std::string record_field(const std::string& record, int index) {
  std::size_t pos = 0;
  for (int field = 0; field < index; ++field) {
    pos += 4 + u32_at(record, pos);
  }
  return record.substr(pos + 4, u32_at(record, pos));
}

std::string make_record(const std::string& src, const std::string& dst,
                        const std::string& turns) {
  std::string record;
  for (const std::string* field : {&src, &dst, &turns}) {
    record.append(4, '\0');
    put_u32(record, record.size() - 4,
            static_cast<std::uint32_t>(field->size()));
    record += *field;
  }
  return record;
}

/// `bytes` with its route records replaced by `records`, resealed.
std::string with_records(std::string bytes, std::size_t first,
                         const std::vector<std::string>& records) {
  bytes.resize(first);
  for (const std::string& record : records) {
    bytes += record;
  }
  reseal(bytes, 2);
  return bytes;
}

std::string decode_error(const std::string& bytes) {
  try {
    (void)service::decode_snapshot(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "decoded";
}

TEST(SnapshotCodec, DecodesRoutesStoredOutOfKeyOrder) {
  // Records normally follow the table's key order, so the decoder holds
  // each against the next recomputed route; out of order it must fall back
  // to name lookups and still decode the same snapshot.
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const service::MapSnapshot snapshot =
      service::build_snapshot(t, {}, common::SimTime::ms(7));
  const std::string bytes = service::encode_snapshot(snapshot);
  const auto [first, records] = route_records(bytes);
  ASSERT_EQ(records.size(), snapshot.routes.routes.size());
  ASSERT_EQ(service::encode_snapshot(service::decode_snapshot(bytes)), bytes);

  common::Rng rng(3);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::string> permuted = records;
    if (round == 0) {
      std::reverse(permuted.begin(), permuted.end());
    } else if (round == 1) {
      std::swap(permuted.front(), permuted.back());
    } else {
      for (std::size_t i = permuted.size() - 1; i > 0; --i) {
        std::swap(permuted[i], permuted[rng.below(i + 1)]);
      }
    }
    ASSERT_NE(permuted, records);
    const service::MapSnapshot decoded =
        service::decode_snapshot(with_records(bytes, first, permuted));
    EXPECT_TRUE(decoded.map.structurally_equal(snapshot.map));
    EXPECT_TRUE(same_tables(decoded.routes, snapshot.routes));
    // The gate certifies the decoded table like the source's.
    EXPECT_TRUE(service::MapCatalog().publish(decoded).published());
    // Re-encoding writes the key order back: the very bytes of the source.
    EXPECT_EQ(service::encode_snapshot(decoded), bytes) << "round " << round;
  }
}

TEST(SnapshotCodec, RouteRecordErrorsKeepTheirWording) {
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const std::string bytes = service::encode_snapshot(
      service::build_snapshot(t, {}, common::SimTime::ms(7)));
  const auto [first, records] = route_records(bytes);
  ASSERT_GT(records.size(), 10u);
  const std::size_t k = 7;
  const std::string src = record_field(records[k], 0);
  const std::string dst = record_field(records[k], 1);
  const std::string turns = record_field(records[k], 2);
  ASSERT_FALSE(turns.empty());

  // An endpoint the map does not have, at either end.
  auto edited = records;
  edited[k] = make_record("nobody", dst, turns);
  EXPECT_EQ(decode_error(with_records(bytes, first, edited)),
            "snapshot: route endpoint nobody -> " + dst +
                " missing from the map");
  edited[k] = make_record(src, "nobody", turns);
  EXPECT_EQ(decode_error(with_records(bytes, first, edited)),
            "snapshot: route endpoint " + src +
                " -> nobody missing from the map");

  // The record in its own key-order slot, but with a different turn word.
  std::string other_turns = turns;
  other_turns[0] = static_cast<char>(other_turns[0] + 1);
  edited[k] = make_record(src, dst, other_turns);
  EXPECT_EQ(decode_error(with_records(bytes, first, edited)),
            "snapshot: stored route " + src + " -> " + dst +
                " disagrees with this build's router");
  // The same record out of its slot goes through the name lookup.
  std::swap(edited[k], edited[0]);
  EXPECT_EQ(decode_error(with_records(bytes, first, edited)),
            "snapshot: stored route " + src + " -> " + dst +
                " disagrees with this build's router");

  // Two known hosts the table has no route between: a host to itself.
  edited = records;
  edited[k] = make_record(src, src, turns);
  EXPECT_EQ(decode_error(with_records(bytes, first, edited)),
            "snapshot: stored route " + src + " -> " + src +
                " disagrees with this build's router");
}

}  // namespace
