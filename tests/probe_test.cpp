// Tests for the probe engine: the response map R, probe ordering and
// counters, cost accounting, participation, and election yielding.
#include <gtest/gtest.h>

#include "probe/probe_engine.hpp"
#include "topology/generators.hpp"

namespace sanmap::probe {
namespace {

using simnet::Network;
using simnet::Route;
using topo::NodeId;
using topo::Topology;

/// h0 -- s0 -- s1 -- h1 (same fixture as simnet_test).
struct Line {
  Topology topo;
  NodeId h0, s0, s1, h1;

  Line() {
    h0 = topo.add_host("h0");
    s0 = topo.add_switch();
    s1 = topo.add_switch();
    h1 = topo.add_host("h1");
    topo.connect(h0, 0, s0, 2);
    topo.connect(s0, 5, s1, 1);
    topo.connect(s1, 4, h1, 0);
  }
};

TEST(ProbeEngine, SwitchProbeDetectsSwitch) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  // Empty prefix: is the adjacent node a switch?
  EXPECT_TRUE(engine.switch_probe(Route{}));
  // Prefix +3 reaches out of s0 toward s1: a switch.
  EXPECT_TRUE(engine.switch_probe(Route{3}));
  // Prefix +3,+3 exits s1 toward h1: a host, not a switch.
  EXPECT_FALSE(engine.switch_probe(Route{3, 3}));
  // Prefix +1: free port on s0.
  EXPECT_FALSE(engine.switch_probe(Route{1}));
}

TEST(ProbeEngine, HostProbeNamesTheHost) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  EXPECT_EQ(engine.host_probe(Route{3}), std::nullopt);   // stranded
  EXPECT_EQ(engine.host_probe(Route{1}), std::nullopt);   // no wire
}

TEST(ProbeEngine, CombinedProbeResponses) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.probe(Route{3}).kind, ResponseKind::kSwitch);
  const Response host = engine.probe(Route{3, 3});
  EXPECT_EQ(host.kind, ResponseKind::kHost);
  EXPECT_EQ(host.host_name, "h1");
  EXPECT_EQ(engine.probe(Route{1}).kind, ResponseKind::kNothing);
}

TEST(ProbeEngine, SwitchFirstOrderCounters) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);  // default kSwitchFirst
  engine.probe(Route{3});     // switch hit: 1 switch probe, no host probe
  engine.probe(Route{3, 3});  // switch miss + host hit
  engine.probe(Route{1});     // switch miss + host miss
  const ProbeCounters& c = engine.counters();
  EXPECT_EQ(c.switch_probes, 3u);
  EXPECT_EQ(c.switch_hits, 1u);
  EXPECT_EQ(c.host_probes, 2u);
  EXPECT_EQ(c.host_hits, 1u);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_DOUBLE_EQ(c.host_ratio(), 0.5);
  EXPECT_NEAR(c.switch_ratio(), 1.0 / 3.0, 1e-12);
}

TEST(ProbeEngine, HostFirstOrderCounters) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.order = ProbeOrder::kHostFirst;
  ProbeEngine engine(net, line.h0, options);
  engine.probe(Route{3});     // host miss + switch hit
  engine.probe(Route{3, 3});  // host hit only
  const ProbeCounters& c = engine.counters();
  EXPECT_EQ(c.host_probes, 2u);
  EXPECT_EQ(c.switch_probes, 1u);
}

TEST(ProbeEngine, BothOrderSendsEverything) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.order = ProbeOrder::kBoth;
  ProbeEngine engine(net, line.h0, options);
  engine.probe(Route{3});
  engine.probe(Route{3, 3});
  EXPECT_EQ(engine.counters().host_probes, 2u);
  EXPECT_EQ(engine.counters().switch_probes, 2u);
}

TEST(ProbeEngine, TimeoutsCostMoreThanResponses) {
  Line line;
  Network net(line.topo);
  ProbeEngine hit_engine(net, line.h0);
  hit_engine.switch_probe(Route{3});
  const auto hit_cost = hit_engine.elapsed();

  ProbeEngine miss_engine(net, line.h0);
  miss_engine.switch_probe(Route{1});
  const auto miss_cost = miss_engine.elapsed();
  EXPECT_LT(hit_cost, miss_cost);
}

TEST(ProbeEngine, HostProbeRoundTripCostsBothEnds) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  engine.host_probe(Route{3, 3});
  // At least two software overheads on each side.
  const auto& cost = net.cost();
  EXPECT_GE(engine.elapsed().to_ns(),
            (cost.send_overhead * 2 + cost.receive_overhead * 2).to_ns());
}

TEST(ProbeEngine, NonParticipatingHostDoesNotAnswer) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.participants = {line.h0};  // only the mapper itself
  ProbeEngine engine(net, line.h0, options);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), std::nullopt);
  // Switch probes are answered by hardware, not daemons: unaffected.
  EXPECT_TRUE(engine.switch_probe(Route{3}));
}

TEST(ProbeEngine, MapperMustParticipate) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.participants = {line.h1};
  EXPECT_THROW(ProbeEngine(net, line.h0, options), common::CheckFailure);
}

TEST(ProbeEngine, ElectionContendersYieldAfterFirstProbe) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.election = true;
  ProbeEngine engine(net, line.h0, options);
  // The first host-probe to the contender is delayed by arbitration but
  // still answered; the second is a normal round trip.
  const auto before_first = engine.elapsed();
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  const auto first_cost = engine.elapsed() - before_first;
  const auto before_second = engine.elapsed();
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  const auto second_cost = engine.elapsed() - before_second;
  EXPECT_EQ((first_cost - second_cost).to_ns(),
            options.election_arbitration.to_ns());
}

TEST(ProbeEngine, ElectionChargesAStartOffset) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.election = true;
  ProbeEngine election(net, line.h0, options);
  ProbeEngine master(net, line.h0);
  EXPECT_GT(election.elapsed().to_ns(), 0);
  EXPECT_EQ(master.elapsed().to_ns(), 0);
}

TEST(ProbeEngine, ResetClearsPassStateOnly) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  engine.host_probe(Route{3, 3});
  engine.reset();
  EXPECT_EQ(engine.counters().total(), 0u);
  EXPECT_EQ(engine.elapsed().to_ns(), 0);
  EXPECT_TRUE(engine.transcript().empty());
}

// Regression: reset() used to re-arm every election contender and re-draw
// the start offset, so a multi-pass session (RobustMapper re-running
// BerkeleyMapper, whose run() resets the engine) re-paid arbitration on
// every pass. Contenders are physical daemons — once yielded, they stay
// yielded for the lifetime of the engine.
TEST(ProbeEngine, ResetDoesNotRearmElectionContenders) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.election = true;
  ProbeEngine engine(net, line.h0, options);
  engine.host_probe(Route{3, 3});  // h1 yields: arbitration paid once
  engine.reset();
  // Pass 2 starts at a clean clock: no start offset re-charged either.
  EXPECT_EQ(engine.elapsed().to_ns(), 0);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  const auto pass2_cost = engine.elapsed();

  // A plain (master-mode) engine's round trip is the no-arbitration cost.
  ProbeEngine master(net, line.h0);
  master.host_probe(Route{3, 3});
  EXPECT_EQ(pass2_cost.to_ns(), master.elapsed().to_ns());
}

// Regression: a probe that reaches a non-participating host used to be
// recorded as answered=false with an empty response, so transcript_replays
// (which replays against a network where every host answers) rejected
// perfectly valid sessions. The transcript records the network-level
// outcome: the route does reach that host.
TEST(ProbeEngine, NonParticipantTranscriptReplaysAgainstFullNetwork) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.participants = {line.h0};  // h1 has no daemon
  options.record_transcript = true;
  ProbeEngine engine(net, line.h0, options);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), std::nullopt);
  ASSERT_EQ(engine.transcript().size(), 1u);
  EXPECT_TRUE(engine.transcript().front().answered);
  EXPECT_EQ(engine.transcript().front().response, "h1");
  // The documented contract: replaying against the same quiescent network
  // with all hosts answering reproduces every entry.
  EXPECT_TRUE(transcript_replays(engine.transcript(), net, line.h0));
}

TEST(ProbeEngine, ChargeAddsMapperWork) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  engine.charge(common::SimTime::ms(5));
  EXPECT_EQ(engine.elapsed().to_ns(), common::SimTime::ms(5).to_ns());
}

TEST(ProbeEngine, ResponseKindNames) {
  EXPECT_STREQ(to_string(ResponseKind::kSwitch), "switch");
  EXPECT_STREQ(to_string(ResponseKind::kHost), "host");
  EXPECT_STREQ(to_string(ResponseKind::kNothing), "nothing");
}

}  // namespace
}  // namespace sanmap::probe
