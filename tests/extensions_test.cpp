// Tests for the §6 future-work extensions: hardware extension plumbing,
// self-identifying switch probes, and the self-identifying-switch mapper.
#include <gtest/gtest.h>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/id_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::mapper {
namespace {

using probe::ProbeEngine;
using simnet::CollisionModel;
using simnet::HardwareExtensions;
using simnet::Network;
using simnet::Route;
using topo::NodeId;
using topo::Topology;

Network extended_net(const Topology& t) {
  HardwareExtensions ext;
  ext.self_identifying_switches = true;
  return Network(t, CollisionModel::kCutThrough, simnet::CostModel{},
                 simnet::FaultModel{}, 1, ext);
}

/// h0 -- s0 -- s1 -- h1 with known ports (the usual line fixture).
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

// ------------------------------------------- identifying switch probes ----

TEST(IdentifyingProbe, RequiresHardwareExtension) {
  Line line;
  Network plain(line.topo);
  ProbeEngine engine(plain, line.h0);
  EXPECT_THROW((void)engine.identifying_switch_probe(Route{}),
               common::CheckFailure);
}

TEST(IdentifyingProbe, ReturnsTheBounceSwitchIdentity) {
  Line line;
  Network net = extended_net(line.topo);
  ProbeEngine engine(net, line.h0);
  EXPECT_EQ(engine.identifying_switch_probe(Route{}), line.s0);
  EXPECT_EQ(engine.identifying_switch_probe(Route{3}), line.s1);
  EXPECT_EQ(engine.identifying_switch_probe(Route{3, 3}), std::nullopt);
}

TEST(IdentifyingProbe, EchoProbeCountsAsSwitchCategory) {
  Line line;
  Network net = extended_net(line.topo);
  ProbeEngine engine(net, line.h0);
  EXPECT_TRUE(engine.echo_probe(simnet::loopback_probe(Route{})));
  EXPECT_FALSE(engine.echo_probe(Route{1, 1, 1}));
  EXPECT_EQ(engine.counters().switch_probes, 2u);
  EXPECT_EQ(engine.counters().switch_hits, 1u);
}

// -------------------------------------------------------------- id mapper --

TEST(IdMapper, RequiresTheHardware) {
  Line line;
  Network plain(line.topo);
  ProbeEngine engine(plain, line.h0);
  EXPECT_THROW(IdMapper bad(engine), common::CheckFailure);
}

TEST(IdMapper, MapsTheLineNetwork) {
  Line line;
  Network net = extended_net(line.topo);
  ProbeEngine engine(net, line.h0);
  const auto result = IdMapper(engine).run();
  EXPECT_TRUE(topo::isomorphic(result.map, line.topo));
  EXPECT_EQ(result.switches, 2u);
  EXPECT_EQ(result.alignment_probes, 0u);  // a tree needs no alignment
}

TEST(IdMapper, CrossLinksNeedAlignmentProbes) {
  const Topology t = topo::ring(5, 1);
  Network net = extended_net(t);
  ProbeEngine engine(net, t.hosts().front());
  const auto result = IdMapper(engine).run();
  EXPECT_TRUE(topo::isomorphic(result.map, t));
  EXPECT_EQ(result.switches, 5u);
  EXPECT_GT(result.alignment_probes, 0u);
}

TEST(IdMapper, MapsParallelWiresAndLoopbackCables) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, s1, 1);
  t.connect(s0, 2, s1, 2);
  t.connect(s1, 4, s1, 6);
  t.connect(h1, 0, s1, 0);
  Network net = extended_net(t);
  ProbeEngine engine(net, h0);
  const auto result = IdMapper(engine).run();
  EXPECT_TRUE(topo::isomorphic(result.map, t));
}

TEST(IdMapper, MapsHostFreeRegions) {
  // Like Myricom, identity-based mapping covers F.
  common::Rng rng(31);
  const Topology t = topo::with_switch_tail(4, 5, 2, rng);
  Network net = extended_net(t);
  ProbeEngine engine(net, t.hosts().front());
  const auto result = IdMapper(engine).run();
  EXPECT_TRUE(topo::isomorphic(result.map, t));
}

TEST(IdMapper, ExploresEachSwitchOnceAndBeatsBerkeleyOnProbes) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const NodeId mapper = *t.find_host("C.util");
  Network net = extended_net(t);
  ProbeEngine engine(net, mapper);
  const auto with_ids = IdMapper(engine).run();
  EXPECT_TRUE(topo::isomorphic(with_ids.map, t));
  EXPECT_EQ(with_ids.switches, t.num_switches());

  Network plain(t);
  ProbeEngine plain_engine(plain, mapper);
  MapperConfig config;
  config.search_depth = topo::search_depth(t, mapper);
  const auto berkeley = BerkeleyMapper(plain_engine, config).run();
  EXPECT_LT(with_ids.probes.total(), berkeley.probes.total());
}

TEST(IdMapper, RandomNetworkSweep) {
  common::Rng rng(606);
  for (int trial = 0; trial < 6; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t = topo::random_irregular(3 + trial, 4, trial, topo_rng);
    Network net = extended_net(t);
    ProbeEngine engine(net, t.hosts().front());
    const auto result = IdMapper(engine).run();
    EXPECT_TRUE(topo::isomorphic(result.map, t)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace sanmap::mapper
