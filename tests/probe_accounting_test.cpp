// Exact probe-clock accounting: every probe category (switch, host, echo,
// identifying) crossed with every outcome (answered, timeout, retries,
// non-participating target) asserts the precise elapsed() value on the
// virtual clock, to the nanosecond.
//
// This suite pins the engine's charge taxonomy:
//
//  * an answered probe costs send_overhead + latency + receive_overhead
//    per round trip (host probes make two trips — the reply retraces the
//    path);
//  * every rejected attempt in the retry loop costs send_overhead +
//    probe_timeout, and a probe with retries = r makes r + 1 attempts;
//  * a host probe that *reaches* a non-participating host is accepted by
//    the network (resending cannot wake a daemon that is not running), so
//    it costs exactly one send_overhead + probe_timeout regardless of the
//    retry budget — and nothing more;
//  * switch, echo and identifying probes are answered by switch hardware,
//    so participation never changes their cost.
#include <gtest/gtest.h>

#include "probe/probe_engine.hpp"
#include "simnet/route.hpp"

namespace sanmap::probe {
namespace {

using common::SimTime;
using simnet::HardwareExtensions;
using simnet::Network;
using simnet::Route;
using topo::NodeId;
using topo::Topology;

/// h0 -- s0 -- s1 -- h1 (same fixture as probe_test / simnet_test).
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

Network extended_net(const Topology& topo) {
  HardwareExtensions ext;
  ext.self_identifying_switches = true;
  return Network(topo, simnet::CollisionModel::kCutThrough, {}, {}, 1, ext);
}

/// One-way flight time of `route`, from the simulator itself (quiescent
/// network: deterministic, independent of the injection instant).
SimTime flight(Network& net, NodeId src, const Route& route) {
  return net.send(src, route).latency;
}

// --- switch probes -------------------------------------------------------

TEST(ProbeAccounting, SwitchProbeAnswered) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  const Route wire = simnet::loopback_probe(Route{3});
  ProbeEngine engine(net, line.h0);
  EXPECT_TRUE(engine.switch_probe(Route{3}));
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + flight(net, line.h0, wire) +
             cost.receive_overhead)
                .to_ns());
}

TEST(ProbeAccounting, SwitchProbeTimeout) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  EXPECT_FALSE(engine.switch_probe(Route{1}));  // free port on s0
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + cost.probe_timeout).to_ns());
}

TEST(ProbeAccounting, SwitchProbeRetriesChargeEveryAttempt) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  engine.set_retries(2);  // 3 attempts total
  EXPECT_FALSE(engine.switch_probe(Route{1}));
  EXPECT_EQ(engine.counters().switch_probes, 3u);
  EXPECT_EQ(engine.elapsed().to_ns(),
            ((cost.send_overhead + cost.probe_timeout) * 3).to_ns());
}

TEST(ProbeAccounting, SwitchProbeIgnoresParticipation) {
  // Switch probes are answered by hardware, not daemons: the cost is the
  // full-participation cost even when no host runs a daemon.
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  const Route wire = simnet::loopback_probe(Route{3});
  ProbeOptions options;
  options.participants = {line.h0};
  ProbeEngine engine(net, line.h0, options);
  EXPECT_TRUE(engine.switch_probe(Route{3}));
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + flight(net, line.h0, wire) +
             cost.receive_overhead)
                .to_ns());
}

// --- host probes ---------------------------------------------------------

TEST(ProbeAccounting, HostProbeAnsweredIsTwoRoundLegs) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  const SimTime leg =
      cost.send_overhead + flight(net, line.h0, Route{3, 3}) +
      cost.receive_overhead;
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  EXPECT_EQ(engine.elapsed().to_ns(), (leg + leg).to_ns());
}

TEST(ProbeAccounting, HostProbeTimeout) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.host_probe(Route{3}), std::nullopt);  // strands at s1
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + cost.probe_timeout).to_ns());
}

TEST(ProbeAccounting, HostProbeRetriesChargeEveryAttempt) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  engine.set_retries(2);
  EXPECT_EQ(engine.host_probe(Route{3}), std::nullopt);
  EXPECT_EQ(engine.counters().host_probes, 3u);
  EXPECT_EQ(engine.elapsed().to_ns(),
            ((cost.send_overhead + cost.probe_timeout) * 3).to_ns());
}

TEST(ProbeAccounting, HostProbeNonParticipantIsOneTimeoutNoRetries) {
  // The message *reaches* h1 (delivery accepted, so the retry loop does not
  // spin), h1's missing daemon never answers, and the mapper waits out one
  // timeout — even with a retry budget.
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeOptions options;
  options.participants = {line.h0};
  options.retries = 2;
  ProbeEngine engine(net, line.h0, options);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), std::nullopt);
  EXPECT_EQ(engine.counters().host_probes, 1u);
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + cost.probe_timeout).to_ns());
}

// --- echo probes ---------------------------------------------------------

TEST(ProbeAccounting, EchoProbeAnswered) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  const Route wire = simnet::loopback_probe(Route{3});
  ProbeEngine engine(net, line.h0);
  EXPECT_TRUE(engine.echo_probe(wire));  // echo takes the full route as-is
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + flight(net, line.h0, wire) +
             cost.receive_overhead)
                .to_ns());
}

TEST(ProbeAccounting, EchoProbeTimeout) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  EXPECT_FALSE(engine.echo_probe(Route{3}));  // never returns to h0
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + cost.probe_timeout).to_ns());
}

TEST(ProbeAccounting, EchoProbeRetriesChargeEveryAttempt) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  engine.set_retries(2);
  EXPECT_FALSE(engine.echo_probe(Route{3}));
  EXPECT_EQ(engine.counters().switch_probes, 3u);
  EXPECT_EQ(engine.elapsed().to_ns(),
            ((cost.send_overhead + cost.probe_timeout) * 3).to_ns());
}

TEST(ProbeAccounting, EchoProbeIgnoresParticipation) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  const Route wire = simnet::loopback_probe(Route{3});
  ProbeOptions options;
  options.participants = {line.h0};
  ProbeEngine engine(net, line.h0, options);
  EXPECT_TRUE(engine.echo_probe(wire));
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + flight(net, line.h0, wire) +
             cost.receive_overhead)
                .to_ns());
}

// --- identifying switch probes ------------------------------------------

TEST(ProbeAccounting, IdentifyingProbeAnswered) {
  Line line;
  Network net = extended_net(line.topo);
  const auto& cost = net.cost();
  const Route wire = simnet::loopback_probe(Route{3});
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.identifying_switch_probe(Route{3}), line.s1);
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + flight(net, line.h0, wire) +
             cost.receive_overhead)
                .to_ns());
}

TEST(ProbeAccounting, IdentifyingProbeTimeout) {
  Line line;
  Network net = extended_net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.identifying_switch_probe(Route{1}), std::nullopt);
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + cost.probe_timeout).to_ns());
}

TEST(ProbeAccounting, IdentifyingProbeRetriesChargeEveryAttempt) {
  Line line;
  Network net = extended_net(line.topo);
  const auto& cost = net.cost();
  ProbeEngine engine(net, line.h0);
  engine.set_retries(2);
  EXPECT_EQ(engine.identifying_switch_probe(Route{1}), std::nullopt);
  EXPECT_EQ(engine.counters().switch_probes, 3u);
  EXPECT_EQ(engine.elapsed().to_ns(),
            ((cost.send_overhead + cost.probe_timeout) * 3).to_ns());
}

TEST(ProbeAccounting, IdentifyingProbeIgnoresParticipation) {
  Line line;
  Network net = extended_net(line.topo);
  const auto& cost = net.cost();
  const Route wire = simnet::loopback_probe(Route{3});
  ProbeOptions options;
  options.participants = {line.h0};
  ProbeEngine engine(net, line.h0, options);
  EXPECT_EQ(engine.identifying_switch_probe(Route{3}), line.s1);
  EXPECT_EQ(engine.elapsed().to_ns(),
            (cost.send_overhead + flight(net, line.h0, wire) +
             cost.receive_overhead)
                .to_ns());
}

// --- election ------------------------------------------------------------

TEST(ProbeAccounting, ElectionFirstContactAddsExactlyOneArbitration) {
  Line line;
  Network net(line.topo);
  const auto& cost = net.cost();
  const SimTime leg =
      cost.send_overhead + flight(net, line.h0, Route{3, 3}) +
      cost.receive_overhead;
  ProbeOptions options;
  options.election = true;
  ProbeEngine engine(net, line.h0, options);
  const SimTime offset = engine.elapsed();  // the delayed start, pre-charged
  EXPECT_GT(offset.to_ns(), 0);
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  EXPECT_EQ(engine.elapsed().to_ns(),
            (offset + leg + leg + options.election_arbitration).to_ns());
  // Second contact: the contender stays yielded, so a plain round trip.
  EXPECT_EQ(engine.host_probe(Route{3, 3}), "h1");
  EXPECT_EQ(engine.elapsed().to_ns(),
            (offset + (leg + leg) * 2 + options.election_arbitration).to_ns());
}

}  // namespace
}  // namespace sanmap::probe
