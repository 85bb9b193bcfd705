// The differential verification subsystem (src/verify):
//
//  * ScenarioCase — the v1 text format round-trips faithfully;
//  * case_seed — per-trial seeds are deterministic and well spread;
//  * mutators — every mutation trail leaves a structurally legal case;
//  * oracle stack — the built-in corpus is clean end to end, and each
//    oracle fires on a fixture built to violate it;
//  * Kahn detector — agrees with the DFS 3-coloring on real route sets and
//    flags a hand-built channel-dependency cycle;
//  * conservation — clean on real traffic, loud on forged accounting;
//  * minimizer — a planted mapper sabotage is caught and shrinks to a
//    hand-checkable case (<= 6 nodes, the bar sanfuzz holds itself to);
//  * fuzzer — a small fixed-seed campaign is clean and deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "verify/conservation.hpp"
#include "verify/fuzzer.hpp"
#include "verify/minimize.hpp"
#include "verify/mutate.hpp"
#include "verify/oracles.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap::verify {
namespace {

using topo::Topology;

ScenarioCase star_case() {
  ScenarioCase c;
  c.name = "star";
  c.network = topo::star(3, 2);
  return c;
}

// ------------------------------------------------------------------ cases --

TEST(ScenarioCase, RoundTripsThroughText) {
  ScenarioCase c = star_case();
  c.collision = simnet::CollisionModel::kCircuit;
  c.mapper_host = c.network.name(c.mapper_node());
  c.faults.push_back(FaultEvent{FaultEvent::Kind::kLinkDown,
                                c.network.wires().front(), topo::kInvalidNode,
                                common::SimTime::ms(3), common::SimTime{},
                                0.0});
  c.faults.push_back(FaultEvent{FaultEvent::Kind::kFlap,
                                c.network.wires().back(), topo::kInvalidNode,
                                common::SimTime::ms(1),
                                common::SimTime::us(500), 0.5});

  const ScenarioCase back = case_from_text(to_text(c));
  EXPECT_EQ(back.name, c.name);
  EXPECT_EQ(back.collision, c.collision);
  EXPECT_EQ(back.mapper_host, c.mapper_host);
  EXPECT_EQ(back.faults, c.faults);
  EXPECT_TRUE(topo::isomorphic(back.network, c.network));
  EXPECT_TRUE(back.has_flap());
  // A second round trip is byte-stable.
  EXPECT_EQ(to_text(back), to_text(c));
}

TEST(ScenarioCase, RejectsMalformedText) {
  EXPECT_THROW(case_from_text("not a case"), std::runtime_error);
  ScenarioCase no_host;
  no_host.network.add_switch("s0");
  EXPECT_THROW((void)no_host.mapper_node(), std::runtime_error);
}

TEST(CaseSeed, DeterministicAndSpread) {
  std::set<std::uint64_t> seen;
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint64_t s = case_seed(1, trial);
    EXPECT_EQ(s, case_seed(1, trial));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u);           // no collisions across trials
  EXPECT_FALSE(seen.contains(case_seed(2, 0)));  // base seed matters
}

// --------------------------------------------------------------- mutators --

TEST(Mutate, TrailsLeaveLegalCases) {
  const std::vector<ScenarioCase> corpus = builtin_corpus();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    ScenarioCase c = corpus[seed % corpus.size()];
    const std::string trail = mutate_n(c, 5, rng);
    EXPECT_FALSE(trail.empty()) << "seed " << seed;
    // Legal: the mapper resolves, no fault references a dead element, the
    // schedule materializes, and the case survives a serialization round
    // trip (which re-checks every wire endpoint by name).
    EXPECT_NO_THROW((void)c.mapper_node()) << trail;
    EXPECT_EQ(c.drop_dangling_faults(), 0u) << trail;
    EXPECT_NO_THROW(c.schedule()) << trail;
    const ScenarioCase back = case_from_text(to_text(c));
    EXPECT_TRUE(topo::isomorphic(back.network, c.network)) << trail;
  }
}

TEST(Mutate, IsDeterministicPerSeed) {
  ScenarioCase a = star_case();
  ScenarioCase b = star_case();
  common::Rng ra(99);
  common::Rng rb(99);
  EXPECT_EQ(mutate_n(a, 4, ra), mutate_n(b, 4, rb));
  EXPECT_EQ(to_text(a), to_text(b));
}

// ---------------------------------------------------------------- oracles --

TEST(Oracles, BuiltinCorpusIsClean) {
  for (const ScenarioCase& c : builtin_corpus()) {
    const OracleReport report = run_oracles(c);
    EXPECT_TRUE(report.ok()) << c.name << ":\n" << report.summary();
  }
}

TEST(Oracles, SabotagedMapperIsCaught) {
  OracleOptions options;
  options.sabotage_skip_merges = true;
  // Any topology where a switch is reachable over two distinct paths makes
  // a merge-free mapper build duplicate vertices.
  ScenarioCase c;
  c.name = "sabotage";
  c.network = topo::fat_tree({.levels = 2, .leaf_switches = 3,
                             .switches_per_upper_level = 2,
                             .hosts_per_leaf = 2, .uplinks = 2});
  const OracleReport report = run_oracles(c, options);
  EXPECT_FALSE(report.ok());
}

TEST(Oracles, ReportsSkipsForInapplicableChecks) {
  ScenarioCase c = star_case();
  c.collision = simnet::CollisionModel::kCircuit;  // Myricom needs cut-through
  const OracleReport report = run_oracles(c);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.skipped.empty());
}

/// A torus case with one dead switch (redundant fabric, localized fault) —
/// the bread-and-butter input of the incremental-equiv oracle.
ScenarioCase dead_switch_case() {
  ScenarioCase c;
  c.name = "one-dead-switch";
  c.network = topo::torus(3, 3, 1);
  c.mapper_host = c.network.name(c.network.hosts().front());
  c.faults.push_back(FaultEvent{FaultEvent::Kind::kNodeDown,
                                topo::kInvalidWire,
                                c.network.switches().back(),
                                common::SimTime::ms(2), common::SimTime{},
                                0.0});
  return c;
}

TEST(Oracles, IncrementalEquivalenceHoldsOnALocalizedFault) {
  // One dead switch on a redundant torus: the spliced incremental repair
  // must be Theorem-1 isomorphic to the surviving core AND strictly cheaper
  // in probes than a from-scratch remap — the dirty-region serving
  // contract. A violation of either half fails ok().
  const OracleReport report = run_oracles(dead_switch_case());
  EXPECT_TRUE(report.ok()) << report.summary();
  // The oracle actually ran: no incremental-equiv skip entry.
  for (const std::string& skip : report.skipped) {
    EXPECT_EQ(skip.find("incremental-equiv"), std::string::npos) << skip;
  }
}

TEST(Oracles, IncrementalEquivalenceSkipsWhereItCannotJudge) {
  // Disabled explicitly.
  OracleOptions off;
  off.incremental = false;
  const OracleReport disabled = run_oracles(dead_switch_case(), off);
  EXPECT_TRUE(disabled.ok()) << disabled.summary();
  EXPECT_TRUE(std::any_of(disabled.skipped.begin(), disabled.skipped.end(),
                          [](const std::string& s) {
                            return s == "incremental-equiv: disabled";
                          }))
      << disabled.summary();

  // A flapping wire has no settled instant to compare at.
  ScenarioCase flappy = dead_switch_case();
  flappy.faults.push_back(FaultEvent{FaultEvent::Kind::kFlap,
                                     flappy.network.wires().front(),
                                     topo::kInvalidNode, common::SimTime::ms(1),
                                     common::SimTime::us(500), 0.5});
  const OracleReport flapped = run_oracles(flappy);
  EXPECT_TRUE(std::any_of(flapped.skipped.begin(), flapped.skipped.end(),
                          [](const std::string& s) {
                            return s == "incremental-equiv: flapping timeline";
                          }))
      << flapped.summary();
}

TEST(Oracles, IncrementalRepairSurvivesSkippedMerges) {
  // Skipping interleaved merges corrupts the from-scratch mappers (see
  // SabotagedMapperIsCaught) but NOT the dirty-region repair: the repair
  // ends with an unconditional model.stabilize(), so deferred deductions
  // still collapse duplicate vertices before extraction. This pins that
  // final stabilize — remove it and the spliced map grows duplicates on
  // this multipath fabric, the equivalence oracle fires, and ok() flips.
  OracleOptions options;
  options.sabotage_skip_merges = true;
  options.dirty_radius = 4;  // repair re-explores most of the fabric
  ScenarioCase c;
  c.name = "sabotaged-splice";
  c.network = topo::fat_tree({.levels = 2, .leaf_switches = 3,
                             .switches_per_upper_level = 2,
                             .hosts_per_leaf = 2, .uplinks = 2});
  c.mapper_host = c.network.name(c.network.hosts().front());
  c.faults.push_back(FaultEvent{FaultEvent::Kind::kNodeDown,
                                topo::kInvalidWire,
                                c.network.switches().back(),
                                common::SimTime::ms(2), common::SimTime{},
                                0.0});
  const OracleReport report = run_oracles(c, options);
  EXPECT_FALSE(report.violates("incremental-equiv")) << report.summary();
  EXPECT_FALSE(report.violates("incremental-crash")) << report.summary();
}

// ---------------------------------------------------------- Kahn detector --

TEST(KahnDetector, AgreesWithDfsColoringOnRealRoutes) {
  for (const Topology& t :
       {topo::star(4, 2), topo::mesh(3, 3, 1), topo::hypercube(3, 1)}) {
    const routing::RoutingResult routes =
        routing::compute_updown_routes(t, {}, 1);
    const auto paths = routing::route_channel_paths(t, routes);
    const routing::DeadlockAnalysis analysis =
        routing::analyze_channel_paths(t, paths);
    EXPECT_EQ(analysis.deadlock_free, channel_paths_acyclic(paths));
    EXPECT_TRUE(channel_paths_acyclic(paths));  // UP*/DOWN* is deadlock-free
  }
}

TEST(KahnDetector, FlagsAHandBuiltCycle) {
  // Three channels in a ring of dependencies: A->B, B->C, C->A.
  const routing::Channel a{0, true};
  const routing::Channel b{1, true};
  const routing::Channel c{2, true};
  routing::ChannelPaths cyclic;
  cyclic.add({a, b});
  cyclic.add({b, c});
  cyclic.add({c, a});
  EXPECT_FALSE(channel_paths_acyclic(cyclic));
  routing::ChannelPaths acyclic;
  acyclic.add({a, b});
  acyclic.add({a, c});
  acyclic.add({b, c});
  EXPECT_TRUE(channel_paths_acyclic(acyclic));
  EXPECT_TRUE(channel_paths_acyclic({}));  // no routes, no deadlock
}

// ------------------------------------------------------------ conservation --

TEST(Conservation, CleanOnARealMappingSession) {
  const Topology t = topo::mesh(2, 2, 1);
  const topo::NodeId mapper = t.hosts().front();
  simnet::Network net(t, simnet::CollisionModel::kCutThrough);
  ConservationChecker checker(t);
  net.attach_hook(&checker);
  probe::ProbeEngine engine(net, mapper);
  mapper::MapperConfig config;
  config.search_depth = topo::search_depth(t, mapper);
  mapper::BerkeleyMapper(engine, config).run();
  checker.finish();
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_GT(checker.messages_seen(), 0u);
}

TEST(Conservation, CatchesForgedAccounting) {
  const Topology t = topo::star(2, 1);
  ConservationChecker checker(t);
  const topo::NodeId host = *t.hosts().begin();
  checker.on_message_begin(host, simnet::Route{3}, common::SimTime{});
  // The "hardware" claims three hops, but the hook observed none.
  simnet::DeliveryResult forged;
  forged.status = simnet::DeliveryStatus::kDelivered;
  forged.destination = host;
  forged.hops = 3;
  simnet::NetworkCounters counters;
  counters.messages = 1;
  counters.wire_traversals = 3;
  counters.by_status[static_cast<std::size_t>(
      simnet::DeliveryStatus::kDelivered)] = 1;
  checker.on_message_end(forged, counters);
  checker.finish();
  EXPECT_FALSE(checker.ok());
}

TEST(Conservation, CatchesOrphanedMessages) {
  const Topology t = topo::star(2, 1);
  ConservationChecker checker(t);
  checker.on_message_begin(*t.hosts().begin(), simnet::Route{},
                           common::SimTime{});
  checker.finish();  // began but never ended
  EXPECT_FALSE(checker.ok());
}

// -------------------------------------------------------------- minimizer --

TEST(Minimize, PlantedSabotageShrinksToAHandCheckableCase) {
  ScenarioCase c;
  c.name = "planted";
  c.network = topo::fat_tree({.levels = 2, .leaf_switches = 3,
                             .switches_per_upper_level = 2,
                             .hosts_per_leaf = 2, .uplinks = 2});
  MinimizeOptions options;
  options.oracle.sabotage_skip_merges = true;
  const auto shrunk = minimize(c, options);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_FALSE(shrunk->target_oracle.empty());
  EXPECT_LE(shrunk->best.network.num_nodes(), 6u)
      << to_text(shrunk->best);
  EXPECT_LT(shrunk->best.network.num_nodes(), c.network.num_nodes());
  // The shrunk case still violates the same oracle it was shrunk against.
  const OracleReport replay = run_oracles(shrunk->best, options.oracle);
  EXPECT_TRUE(replay.violates(shrunk->target_oracle)) << replay.summary();
}

TEST(Minimize, ReturnsNulloptOnACleanCase) {
  EXPECT_FALSE(minimize(star_case()).has_value());
}

// ----------------------------------------------------------------- fuzzer --

TEST(Fuzzer, SmallFixedSeedCampaignIsClean) {
  FuzzOptions options;
  options.trials = 6;
  options.seed = 42;
  FuzzReport report = fuzz(options);
  EXPECT_EQ(report.trials, 6);
  EXPECT_TRUE(report.ok());
  // Determinism: the same seed replays the identical campaign.
  const FuzzReport again = fuzz(options);
  EXPECT_EQ(again.failures.size(), report.failures.size());
  EXPECT_EQ(again.skip_counts, report.skip_counts);
}

TEST(Fuzzer, ReplayRunsTheFullStackOnOneCase) {
  const OracleReport report = replay_case(builtin_corpus().front());
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace sanmap::verify
