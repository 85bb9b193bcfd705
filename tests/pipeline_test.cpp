// Tests for ProbePipeline (DESIGN.md §11): the event-queue completion
// model, exact window-1 degeneration to serial times, chained
// (response-dependent) legs, and the end-to-end windowed mappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/parallel_mapper.hpp"
#include "probe/probe_pipeline.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::probe {
namespace {

using common::SimTime;
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

/// Serial cost of a switch-probe miss: one rejected attempt.
SimTime miss_cost(const Network& net) {
  return net.cost().send_overhead + net.cost().probe_timeout;
}

/// Serial cost of an answered single-leg probe over `wire_route`.
SimTime hit_cost(Network& net, NodeId src, const Route& wire_route) {
  return net.cost().send_overhead + net.send(src, wire_route).latency +
         net.cost().receive_overhead;
}

TEST(ProbePipeline, WindowOneReproducesSerialExactly) {
  Line line;
  Network net(line.topo);
  // Jitter on: every charge consumes an RNG draw, so equality here proves
  // the pipeline replays the exact serial draw sequence, not just the same
  // deterministic costs.
  ProbeOptions options;
  options.jitter = 0.05;
  ProbeEngine serial(net, line.h0, options);
  ProbeEngine piped_engine(net, line.h0, options);
  ProbePipeline pipeline(piped_engine, 1);

  const std::vector<Route> prefixes{
      Route{3}, Route{3, 3}, Route{1}, Route{}, Route{3, 3}};
  for (const Route& prefix : prefixes) {
    const Response a = serial.probe(prefix);
    const Response b = pipeline.probe(prefix);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.host_name, b.host_name);
  }
  pipeline.drain();
  EXPECT_EQ(piped_engine.elapsed().to_ns(), serial.elapsed().to_ns());
  EXPECT_TRUE(piped_engine.counters() == serial.counters());
}

TEST(ProbePipeline, BatchCostsTheMaxOfIndependentLegs) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  ProbePipeline pipeline(engine, 2);
  const SimTime a = miss_cost(net);  // free port: full timeout
  const SimTime b =
      hit_cost(net, line.h0, simnet::loopback_probe(Route{3}));
  EXPECT_FALSE(pipeline.switch_probe(Route{1}));
  EXPECT_TRUE(pipeline.switch_probe(Route{3}));
  pipeline.drain();
  EXPECT_EQ(engine.elapsed().to_ns(), std::max(a, b).to_ns());
}

TEST(ProbePipeline, ChainedLegWaitsForItsTrigger) {
  // probe() under kSwitchFirst sends the host leg only after the switch
  // leg misses: a response-dependent decision, so even with a wide-open
  // window the two legs serialize.
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  ProbePipeline pipeline(engine, 8);
  const SimTime a = miss_cost(net);
  EXPECT_EQ(pipeline.probe(Route{1}).kind, ResponseKind::kNothing);
  pipeline.drain();
  EXPECT_EQ(engine.elapsed().to_ns(), (a + a).to_ns());
  EXPECT_EQ(pipeline.stats().chained_legs, 1u);
}

TEST(ProbePipeline, SpeculativeLegsOverlapAChainedPair) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  ProbePipeline pipeline(engine, 8);
  const SimTime a = miss_cost(net);
  EXPECT_EQ(pipeline.probe(Route{1}).kind, ResponseKind::kNothing);
  // Issued while the chained pair is still in flight: hides entirely
  // behind it.
  EXPECT_TRUE(pipeline.switch_probe(Route{3}));
  pipeline.drain();
  EXPECT_EQ(engine.elapsed().to_ns(), (a + a).to_ns());
  EXPECT_GE(pipeline.stats().peak_in_flight, 2u);
  EXPECT_EQ(pipeline.stats().legs, 3u);
}

TEST(ProbePipeline, WindowBoundsConcurrency) {
  // Three equal-cost misses through a window of two: the third leg must
  // wait for a slot, so the makespan is two timeouts, not one (and not
  // three).
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  ProbePipeline pipeline(engine, 2);
  const SimTime a = miss_cost(net);
  EXPECT_FALSE(pipeline.switch_probe(Route{1}));
  EXPECT_FALSE(pipeline.switch_probe(Route{2}));
  EXPECT_FALSE(pipeline.switch_probe(Route{4}));
  pipeline.drain();
  EXPECT_EQ(engine.elapsed().to_ns(), (a + a).to_ns());
  EXPECT_EQ(pipeline.stats().peak_in_flight, 2u);
}

TEST(ProbePipeline, DrainIsIdempotent) {
  Line line;
  Network net(line.topo);
  ProbeEngine engine(net, line.h0);
  ProbePipeline pipeline(engine, 4);
  pipeline.switch_probe(Route{1});
  pipeline.drain();
  const SimTime after_first = engine.elapsed();
  pipeline.drain();
  EXPECT_EQ(engine.elapsed().to_ns(), after_first.to_ns());
  EXPECT_EQ(pipeline.in_flight(), 0u);
}

TEST(ProbePipeline, TranscriptAndCountersMatchSerial) {
  Line line;
  Network net(line.topo);
  ProbeOptions options;
  options.record_transcript = true;
  ProbeEngine serial(net, line.h0, options);
  ProbeEngine piped_engine(net, line.h0, options);
  ProbePipeline pipeline(piped_engine, 4);
  const std::vector<Route> prefixes{Route{3}, Route{1}, Route{3, 3}, Route{2}};
  for (const Route& prefix : prefixes) {
    serial.probe(prefix);
    pipeline.probe(prefix);
  }
  pipeline.drain();
  EXPECT_TRUE(piped_engine.counters() == serial.counters());
  std::ostringstream a, b;
  serial.write_transcript(a);
  piped_engine.write_transcript(b);
  EXPECT_EQ(a.str(), b.str());
  // Re-timing only ever shortens the clock.
  EXPECT_LE(piped_engine.elapsed().to_ns(), serial.elapsed().to_ns());
}

// --- end-to-end through the mappers --------------------------------------

mapper::MapResult map_with_window(const Topology& t, NodeId mapper_host,
                                  int window,
                                  ProbeOptions probe_options = {}) {
  Network net(t);
  ProbeEngine engine(net, mapper_host, std::move(probe_options));
  mapper::MapperConfig config;
  config.search_depth = topo::search_depth(t, mapper_host);
  config.pipeline_window = window;
  return mapper::BerkeleyMapper(engine, config).run();
}

TEST(PipelinedMapper, WindowedRunIsAPureRetiming) {
  const Topology t = topo::star(3, 2);
  const NodeId mapper_host = t.hosts().front();
  const auto serial = map_with_window(t, mapper_host, 1);
  for (const int window : {2, 8}) {
    const auto piped = map_with_window(t, mapper_host, window);
    EXPECT_TRUE(piped.probes == serial.probes) << "window " << window;
    EXPECT_TRUE(topo::isomorphic(piped.map, serial.map))
        << "window " << window;
    EXPECT_LE(piped.elapsed.to_ns(), serial.elapsed.to_ns())
        << "window " << window;
  }
}

TEST(PipelinedMapper, WindowOneExactOverAMappingSizedWorkload) {
  // A frontier-shaped sweep (every prefix of depth <= 2) through a
  // window-1 pipeline lands on the serial engine's clock to the
  // nanosecond — the w=1 degeneration holds over hits, misses, chained
  // pairs and jittered charges alike, not just toy sequences.
  const Topology t = topo::star(3, 2);
  const NodeId mapper_host = t.hosts().front();
  Network net(t);
  ProbeOptions options;
  options.jitter = 0.05;
  ProbeEngine serial(net, mapper_host, options);
  ProbeEngine piped_engine(net, mapper_host, options);
  ProbePipeline pipeline(piped_engine, 1);
  std::vector<Route> prefixes{Route{}};
  for (simnet::Turn a = simnet::kMinTurn; a <= simnet::kMaxTurn; ++a) {
    prefixes.push_back(Route{a});
    prefixes.push_back(Route{a, a});
  }
  for (const Route& prefix : prefixes) {
    serial.probe(prefix);
    pipeline.probe(prefix);
  }
  pipeline.drain();
  EXPECT_EQ(piped_engine.elapsed().to_ns(), serial.elapsed().to_ns());
  EXPECT_TRUE(piped_engine.counters() == serial.counters());
}

TEST(PipelinedMapper, TimeoutHeavySessionSpeedsUp) {
  // Partial participation: every probe at another host burns a full
  // timeout serially; with eight in flight they overlap.
  const Topology t = topo::star(3, 2);
  const NodeId mapper_host = t.hosts().front();
  ProbeOptions lonely;
  lonely.participants = {mapper_host};
  const auto serial = map_with_window(t, mapper_host, 1, lonely);
  const auto piped = map_with_window(t, mapper_host, 8, lonely);
  EXPECT_TRUE(piped.probes == serial.probes);
  EXPECT_TRUE(topo::isomorphic(piped.map, serial.map));
  EXPECT_LE((piped.elapsed * 2).to_ns(), serial.elapsed.to_ns())
      << "window 8 should at least halve a timeout-dominated session "
      << "(serial " << serial.elapsed << ", piped " << piped.elapsed << ")";
}

TEST(PipelinedMapper, ParallelMapperThreadsTheWindowThrough) {
  Line line;
  Network net1(line.topo);
  Network net2(line.topo);
  mapper::ParallelConfig config;
  config.mappers = {{line.h0, 3}, {line.h1, 3}};
  const auto serial = mapper::ParallelMapper(net1, config).run();
  config.pipeline_window = 8;
  const auto piped = mapper::ParallelMapper(net2, config).run();
  EXPECT_EQ(piped.total_probes, serial.total_probes);
  EXPECT_TRUE(topo::isomorphic(piped.map, serial.map));
  EXPECT_LE(piped.elapsed.to_ns(), serial.elapsed.to_ns());
}

}  // namespace
}  // namespace sanmap::probe
