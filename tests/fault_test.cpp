// Timed fault injection and the self-healing stack on top of it:
//  * FaultSchedule timeline semantics (transitions, flaps, node death,
//    the surviving-topology oracle);
//  * Network integration — downed wires manifest as the paper's own
//    NO SUCH WIRE, dead sources as kDropped, sampled at head-arrival time;
//  * RobustMapper — convergence on quiet networks, severed subclusters
//    (Theorem 1 against the surviving core), flapping-link quarantine,
//    mid-mapping faults under cross-traffic.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/robust_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/fault_schedule.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap {
namespace {

using common::SimTime;
using topo::NodeId;
using topo::Topology;
using topo::WireId;

/// The oracle a mapper can be held to under faults: the mapper's connected
/// component of the surviving topology, stripped of its separated set
/// (Theorem 1's N - F, with N the fabric the schedule left alive).
Topology surviving_core(const Topology& full,
                        const simnet::FaultSchedule& schedule, SimTime at,
                        NodeId mapper_host) {
  Topology alive = schedule.surviving(full, at);
  std::vector<int> component;
  topo::components(alive, component);
  for (const NodeId n : alive.nodes()) {
    if (component[n] != component[mapper_host]) {
      alive.remove_node(n);
    }
  }
  return topo::core(alive);
}

// ------------------------------------------------------- schedule basics --

TEST(FaultSchedule, LinkTransitionsAreInclusiveAndOrdered) {
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s = t.add_switch();
  const WireId w = t.connect(h, 0, s, 0);

  simnet::FaultSchedule schedule;
  EXPECT_TRUE(schedule.empty());
  schedule.link_down(w, SimTime::ms(1));
  schedule.link_up(w, SimTime::ms(3));
  EXPECT_FALSE(schedule.empty());
  EXPECT_EQ(schedule.events(), 2u);

  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime{}));
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::us(999)));
  EXPECT_FALSE(schedule.wire_up_at(t, w, SimTime::ms(1)));  // inclusive
  EXPECT_FALSE(schedule.wire_up_at(t, w, SimTime::ms(2)));
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::ms(3)));
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::ms(100)));
}

TEST(FaultSchedule, FlapFollowsDutyCycleFromItsStart) {
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s = t.add_switch();
  const WireId w = t.connect(h, 0, s, 0);

  simnet::FaultSchedule schedule;
  schedule.flapping_link(w, SimTime::ms(1), 0.6, SimTime::ms(10));

  // Before the flap starts the wire is untouched.
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::ms(5)));
  // Then: up for 600 us, down for 400 us, repeating.
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::ms(10)));
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::ms(10) + SimTime::us(599)));
  EXPECT_FALSE(schedule.wire_up_at(t, w, SimTime::ms(10) + SimTime::us(600)));
  EXPECT_FALSE(schedule.wire_up_at(t, w, SimTime::ms(10) + SimTime::us(999)));
  EXPECT_TRUE(schedule.wire_up_at(t, w, SimTime::ms(11)));
  EXPECT_FALSE(schedule.wire_up_at(t, w, SimTime::ms(11) + SimTime::us(700)));
}

TEST(FaultSchedule, DutyCycleEdgesPinTheWireDownOrUp) {
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s = t.add_switch();
  const WireId w = t.connect(h, 0, s, 0);

  // duty 0.0: the up span is empty — the wire is down from the flap's
  // start onward, at every phase of the period.
  simnet::FaultSchedule always_down;
  always_down.flapping_link(w, SimTime::ms(1), 0.0, SimTime::ms(10));
  EXPECT_TRUE(always_down.wire_up_at(t, w, SimTime::ms(9)));
  for (int us = 0; us <= 3000; us += 37) {
    EXPECT_FALSE(
        always_down.wire_up_at(t, w, SimTime::ms(10) + SimTime::us(us)))
        << us;
  }

  // duty 1.0: the down span is empty — the flap never takes the wire out.
  simnet::FaultSchedule always_up;
  always_up.flapping_link(w, SimTime::ms(1), 1.0, SimTime::ms(10));
  for (int us = 0; us <= 3000; us += 37) {
    EXPECT_TRUE(always_up.wire_up_at(t, w, SimTime::ms(10) + SimTime::us(us)))
        << us;
  }
}

TEST(FaultSchedule, NodeRevivalRestoresIncidentWireLiveness) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(h0, 0, s0, 0);
  const WireId wss = t.connect(s0, 1, s1, 0);
  const WireId wh1 = t.connect(s1, 1, h1, 0);

  simnet::FaultSchedule schedule;
  schedule.node_down(s1, SimTime::ms(2));
  schedule.node_up(s1, SimTime::ms(5));

  // While dead, the node's wires are down and surviving() drops the node.
  EXPECT_FALSE(schedule.wire_up_at(t, wss, SimTime::ms(3)));
  EXPECT_FALSE(schedule.wire_up_at(t, wh1, SimTime::ms(3)));
  EXPECT_FALSE(schedule.surviving(t, SimTime::ms(3)).node_alive(s1));

  // Revival restores every incident wire — liveness comes back from the
  // node state alone, with no per-wire link_up events — and surviving()
  // is structurally the original fabric again.
  EXPECT_TRUE(schedule.wire_up_at(t, wss, SimTime::ms(5)));
  EXPECT_TRUE(schedule.wire_up_at(t, wh1, SimTime::ms(5)));
  EXPECT_TRUE(schedule.surviving(t, SimTime::ms(5)).structurally_equal(t));

  // Unless a wire had its own down transition while the node was dead:
  // that wire needs its own link_up.
  schedule.link_down(wh1, SimTime::ms(3));
  EXPECT_TRUE(schedule.wire_up_at(t, wss, SimTime::ms(6)));
  EXPECT_FALSE(schedule.wire_up_at(t, wh1, SimTime::ms(6)));
  schedule.link_up(wh1, SimTime::ms(7));
  EXPECT_TRUE(schedule.wire_up_at(t, wh1, SimTime::ms(7)));
}

TEST(FaultSchedule, NodeDeathTakesIncidentWiresDown) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const WireId wh0 = t.connect(h0, 0, s0, 0);
  const WireId wss = t.connect(s0, 1, s1, 0);
  const WireId wh1 = t.connect(s1, 1, h1, 0);

  simnet::FaultSchedule schedule;
  schedule.node_down(s1, SimTime::ms(2));
  schedule.node_up(s1, SimTime::ms(5));

  EXPECT_TRUE(schedule.node_up_at(s1, SimTime::ms(1)));
  EXPECT_FALSE(schedule.node_up_at(s1, SimTime::ms(2)));
  EXPECT_TRUE(schedule.node_up_at(s1, SimTime::ms(5)));

  // Both wires incident to the dead switch are down with it; the far wire
  // is untouched.
  EXPECT_TRUE(schedule.wire_up_at(t, wh0, SimTime::ms(3)));
  EXPECT_FALSE(schedule.wire_up_at(t, wss, SimTime::ms(3)));
  EXPECT_FALSE(schedule.wire_up_at(t, wh1, SimTime::ms(3)));
  EXPECT_TRUE(schedule.wire_up_at(t, wss, SimTime::ms(6)));
}

TEST(FaultSchedule, SurvivingTopologyIsTheMinusFOracle) {
  common::Rng rng(4242);
  Topology t = topo::star(4, 2);
  const auto switches = t.switches();
  const NodeId dead_switch = switches.back();

  simnet::FaultSchedule schedule;
  schedule.node_down(dead_switch, SimTime::ms(1));

  const Topology before = schedule.surviving(t, SimTime{});
  EXPECT_TRUE(before.structurally_equal(t));

  const Topology after = schedule.surviving(t, SimTime::ms(2));
  EXPECT_FALSE(after.node_alive(dead_switch));
  EXPECT_EQ(after.num_switches(), t.num_switches() - 1);
  // Ids are preserved: every surviving node keeps its id and name.
  for (const NodeId n : after.nodes()) {
    EXPECT_TRUE(t.node_alive(n));
    EXPECT_EQ(after.name(n), t.name(n));
  }
}

// --------------------------------------------------- network integration --

TEST(FaultNetwork, DownedWireManifestsAsNoSuchWire) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(h0, 0, s0, 0);
  const WireId wss = t.connect(s0, 1, s1, 0);
  t.connect(s1, 1, h1, 0);

  simnet::FaultSchedule schedule;
  schedule.link_down(wss, SimTime::ms(1));

  simnet::Network net(t);
  net.attach_faults(&schedule);
  const simnet::Route route{+1, +1};

  const auto before = net.send(h0, route, nullptr, SimTime{});
  EXPECT_TRUE(before.delivered());
  EXPECT_EQ(before.destination, h1);

  const auto after = net.send(h0, route, nullptr, SimTime::ms(2));
  EXPECT_EQ(after.status, simnet::DeliveryStatus::kNoSuchWire);
  EXPECT_EQ(after.destination, s0);  // the head died selecting s0's port

  // A short route that now ends on a switch is STRANDED IN NETWORK —
  // the paper's failure modes, no new status.
  const auto stranded = net.send(h0, simnet::Route{}, nullptr, SimTime::ms(2));
  EXPECT_EQ(stranded.status, simnet::DeliveryStatus::kStrandedInNetwork);
}

TEST(FaultNetwork, DeadSourceHostCannotInject) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  const NodeId s0 = t.add_switch();
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, h1, 0);

  simnet::FaultSchedule schedule;
  schedule.node_down(h0, SimTime::ms(1));

  simnet::Network net(t);
  net.attach_faults(&schedule);

  EXPECT_TRUE(net.send(h0, simnet::Route{+1}, nullptr, SimTime{}).delivered());
  const auto dead = net.send(h0, simnet::Route{+1}, nullptr, SimTime::ms(2));
  EXPECT_EQ(dead.status, simnet::DeliveryStatus::kDropped);
  EXPECT_EQ(dead.hops, 0);
}

TEST(FaultNetwork, WireStateIsSampledAtHeadArrivalTime) {
  // A wire several hops out dies between injection and head arrival: the
  // message must still find it dead (state is sampled per hop, not at
  // injection).
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  NodeId prev = t.add_switch();
  t.connect(h0, 0, prev, 0);
  WireId last = 0;
  for (int i = 0; i < 3; ++i) {
    const NodeId next = t.add_switch();
    last = t.connect(prev, 1, next, 0);
    prev = next;
  }
  t.connect(prev, 1, h1, 0);

  simnet::Network probe_net(t);
  const simnet::Route route{+1, +1, +1, +1};
  const auto clean = probe_net.send(h0, route);
  ASSERT_TRUE(clean.delivered());

  // Kill the last switch-switch wire "now": a message injected slightly
  // before the instant still reaches that wire after it died.
  simnet::FaultSchedule schedule;
  schedule.link_down(last, SimTime::us(1));
  simnet::Network net(t);
  net.attach_faults(&schedule);
  const auto result = net.send(h0, route, nullptr, SimTime{});
  EXPECT_EQ(result.status, simnet::DeliveryStatus::kNoSuchWire);
}

// ------------------------------------------------------------ robust map --

TEST(RobustMapper, QuietNetworkConverges) {
  common::Rng rng(1717);
  const Topology t = topo::random_irregular(6, 6, 3, rng);
  const NodeId mapper_host = t.hosts().front();

  simnet::Network net(t);
  probe::ProbeEngine engine(net, mapper_host);
  mapper::RobustConfig config;
  config.base.search_depth = topo::search_depth(t, mapper_host);
  const auto result = mapper::RobustMapper(engine, config).run();

  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.partial);
  // This fabric has a dangling F-switch behind a recorded-free port; its
  // first bounce costs exactly one confirming re-exploration pass (a core
  // subtree a pass missed would bounce identically), after which it is
  // accepted as baseline.
  EXPECT_LE(result.passes, 2);
  EXPECT_TRUE(result.quarantined_ports.empty());
  EXPECT_TRUE(result.cut_off.empty());
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  EXPECT_EQ(result.consistency_failures, 0u);
  EXPECT_GT(result.consistency_checks, 0u);
}

TEST(RobustMapper, SeveredSubclusterYieldsSurvivingMapAndCutoff) {
  // Main body (redundant ring) plus a tail subcluster (switch + host)
  // hanging off one bridge wire; the bridge dies mid-session.
  Topology t = topo::ring(4, 1);
  const NodeId mapper_host = t.hosts().front();
  const NodeId tail_switch = t.add_switch("tail-s");
  const NodeId tail_host = t.add_host("tail-h");
  const WireId bridge = t.connect_any(tail_switch, t.switches().front());
  t.connect_any(tail_host, tail_switch);

  // The first pass takes ~64 ms on this fabric; a death at 60 ms lands
  // after the tail was explored but before the stability sweep reaches
  // the bridge, so the session has seen the tail and must excise it.
  simnet::FaultSchedule schedule;
  schedule.link_down(bridge, SimTime::ms(60));

  simnet::Network net(t);
  net.attach_faults(&schedule);
  probe::ProbeEngine engine(net, mapper_host);
  mapper::RobustConfig config;
  config.base.search_depth = topo::search_depth(t, mapper_host) + 2;
  const auto result = mapper::RobustMapper(engine, config).run();

  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.partial);
  const Topology oracle =
      surviving_core(t, schedule, result.elapsed, mapper_host);
  EXPECT_TRUE(topo::isomorphic(result.map, oracle));
  EXPECT_FALSE(result.map.find_host("tail-h").has_value());
  // The fault landed after the first pass had seen the tail, so the sweep
  // excised it and reported it cut off.
  EXPECT_FALSE(result.cut_off.empty());
  EXPECT_TRUE(std::find(result.cut_off.begin(), result.cut_off.end(),
                        "tail-h") != result.cut_off.end());
}

TEST(RobustMapper, FlappingLinkIsQuarantined) {
  // Two switches joined by two parallel cables; one of them flaps. The
  // session must converge on the stable map (flapper excluded) and report
  // the flapping port quarantined instead of looping forever.
  Topology t;
  const NodeId h0 = t.add_host("m");
  const NodeId h1 = t.add_host("b");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, s1, 0);  // the stable cable
  const WireId flapper = t.connect(s0, 2, s1, 1);
  t.connect(s1, 2, h1, 0);

  // The mapping pass takes ~32 ms; a 64 ms period with 50% duty keeps the
  // flapper up through the pass (it gets mapped), down through the first
  // sweep's echo burst (confirmed dead, excised — transition one), and up
  // again when the next round re-probes the now-free port (transition two
  // on the far-side key: quarantine).
  simnet::FaultSchedule schedule;
  schedule.flapping_link(flapper, SimTime::ms(64), 0.5);

  simnet::Network net(t);
  net.attach_faults(&schedule);
  probe::ProbeEngine engine(net, h0);
  mapper::RobustConfig config;
  config.base.search_depth = topo::search_depth(t, h0) + 2;
  // Quiet fabric: no cross-traffic means every confirmed transition is a
  // real state change, so the second-chance remap the default threshold
  // reserves for traffic-eaten bursts is unnecessary.
  config.quarantine_threshold = 2;
  const auto result = mapper::RobustMapper(engine, config).run();

  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.partial);
  EXPECT_FALSE(result.quarantined_ports.empty());

  // Oracle: the topology with the flapper permanently removed.
  Topology stable = t;
  stable.disconnect(flapper);
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(stable)));
}

TEST(RobustMapper, MidMappingLinkDeathsUnderCrossTraffic) {
  // The ISSUE's acceptance scenario: two links die mid-mapping while 10%
  // cross-traffic destroys probes; the session must still converge to a
  // map exactly isomorphic to the surviving core, deterministically.
  Topology t = topo::mesh(3, 3, 1);
  const NodeId mapper_host = t.hosts().front();
  const NodeId tail_switch = t.add_switch("tail-s");
  const NodeId tail_host = t.add_host("tail-h");
  const WireId bridge = t.connect_any(tail_switch, t.switches()[4]);
  t.connect_any(tail_host, tail_switch);
  // A redundant mesh link: its death must not cut anything off.
  WireId mesh_link = bridge;
  for (topo::Port p = 0; p < t.port_count(t.switches()[0]); ++p) {
    const auto far = t.peer(t.switches()[0], p);
    if (far && t.is_switch(far->node)) {
      mesh_link = *t.wire_at(t.switches()[0], p);
      break;
    }
  }
  ASSERT_NE(mesh_link, bridge);

  // The mapping pass takes ~600 ms under this loss rate; both deaths land
  // mid-pass, after the victims were explored.
  simnet::FaultSchedule schedule;
  schedule.link_down(bridge, SimTime::ms(450));
  schedule.link_down(mesh_link, SimTime::ms(500));

  simnet::FaultModel faults;
  faults.traffic_intensity = 0.10;
  simnet::Network net(t, simnet::CollisionModel::kCutThrough,
                      simnet::CostModel{}, faults, /*fault_seed=*/77);
  net.attach_faults(&schedule);
  probe::ProbeEngine engine(net, mapper_host);
  mapper::RobustConfig config;
  config.base.search_depth = topo::search_depth(t, mapper_host) + 2;
  config.initial_retries = 4;  // condition against the 10% loss floor
  const auto result = mapper::RobustMapper(engine, config).run();

  EXPECT_TRUE(result.converged);
  const Topology oracle =
      surviving_core(t, schedule, result.elapsed, mapper_host);
  EXPECT_TRUE(topo::isomorphic(result.map, oracle));
  EXPECT_TRUE(result.partial);
}

}  // namespace
}  // namespace sanmap
