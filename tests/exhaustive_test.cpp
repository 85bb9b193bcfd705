// Exhaustive and adversarial sweeps that go deeper than the per-module
// suites:
//   * the packet routing model and the §1.2 superset chain;
//   * every single-switch port-occupancy pattern from every entry port
//     (the feasibility heuristic has no corner left unchecked);
//   * mapper-position independence on subcluster C;
//   * deep alias chains in the model graph;
//   * parser fuzzing (malformed inputs fail cleanly, never crash).
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/model_graph.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "topology/serialize.hpp"

namespace sanmap {
namespace {

using topo::NodeId;
using topo::Topology;

// --------------------------------------------------------- packet model ----

TEST(PacketModel, NameAndFreeReuse) {
  EXPECT_STREQ(simnet::to_string(simnet::CollisionModel::kPacket), "packet");
  // A route that circles a 3-ring twice self-collides under circuit but
  // sails through under packet routing.
  const Topology t = topo::ring(3, 1);
  const NodeId h0 = t.hosts().front();
  const simnet::Route double_loop{-2, -1, -1, -1, -1, -1, 1};
  simnet::Network circuit(t, simnet::CollisionModel::kCircuit);
  simnet::Network packet(t, simnet::CollisionModel::kPacket);
  EXPECT_EQ(circuit.send(h0, double_loop).status,
            simnet::DeliveryStatus::kSelfCollision);
  EXPECT_TRUE(packet.send(h0, double_loop).delivered());
}

TEST(PacketModel, SupersetChainOverRandomRoutes) {
  // §1.2: packet delivery paths are a superset of cut-through, which is a
  // superset of circuit.
  common::Rng rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t = topo::random_irregular(6, 4, 4, topo_rng);
    simnet::Network circuit(t, simnet::CollisionModel::kCircuit);
    simnet::Network cut(t, simnet::CollisionModel::kCutThrough);
    simnet::Network packet(t, simnet::CollisionModel::kPacket);
    const auto hosts = t.hosts();
    for (int i = 0; i < 400; ++i) {
      const NodeId src = rng.pick(hosts);
      simnet::Route route;
      const auto len = rng.below(12);
      for (std::uint64_t j = 0; j < len; ++j) {
        route.push_back(static_cast<simnet::Turn>(rng.range(-7, 7)));
      }
      const bool c = circuit.send(src, route).delivered();
      const bool k = cut.send(src, route).delivered();
      const bool p = packet.send(src, route).delivered();
      EXPECT_LE(c, k);
      EXPECT_LE(k, p);
    }
  }
}

TEST(PacketModel, MapsWithTheTwoDPlusOneDepth) {
  // §3.2.2: with packet routing, search depth 2D+1 suffices.
  const Topology t = topo::ring(6, 1);
  const NodeId mapper_host = t.hosts().front();
  simnet::Network net(t, simnet::CollisionModel::kPacket);
  probe::ProbeEngine engine(net, mapper_host);
  mapper::MapperConfig config;
  config.search_depth = 2 * topo::diameter(t) + 1;
  const auto result = mapper::BerkeleyMapper(engine, config).run();
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
}

TEST(PacketModel, CutThroughStallIsChargedExactly) {
  // A short-gap reuse that fits in buffering costs exactly
  // worm_length - natural_drain more than the same route under packet
  // routing, which never stalls.
  const Topology t = topo::ring(3, 1);
  const NodeId h0 = t.hosts().front();
  simnet::CostModel cost;
  cost.payload_flits = 2000;        // long worm
  cost.port_buffer_flits = 100000;  // buffering always rescues it
  const simnet::Route double_loop{-2, -1, -1, -1, -1, -1, 1};
  simnet::Network cut(t, simnet::CollisionModel::kCutThrough, cost);
  simnet::Network packet(t, simnet::CollisionModel::kPacket, cost);
  const auto with_stall = cut.send(h0, double_loop);
  const auto without = packet.send(h0, double_loop);
  ASSERT_TRUE(with_stall.delivered());
  ASSERT_TRUE(without.delivered());
  // Reuses at gap 3 happen on the three ring channels; each stalls
  // worm_length - 3 * per_hop.
  const auto per_hop = cost.switch_latency + cost.flit_time();
  const auto worm = cost.flit_time() * cost.message_flits(7);
  const auto expected_stall = (worm - per_hop * 3) * 3;
  EXPECT_EQ((with_stall.latency - without.latency).to_ns(),
            expected_stall.to_ns());
}

// ----------------------------------- exhaustive single-switch patterns ----

TEST(ExhaustivePatterns, EverySwitchOccupancyFromEveryEntryPort) {
  // One switch, the mapper on entry port e, and every subset of the other
  // ports populated (host or stub-switch-with-host by parity). The map must
  // be exact for all 8 * 2^7 = 1024 combinations — this sweeps every
  // feasibility-narrowing and port-normalization corner.
  for (topo::Port entry = 0; entry < topo::kSwitchPorts; ++entry) {
    for (unsigned mask = 1; mask < 256; ++mask) {
      if ((mask >> static_cast<unsigned>(entry)) & 1u) {
        continue;  // the entry port holds the mapper itself
      }
      // mask 0 (mapper + bare switch) is excluded: it violates the paper's
      // standing assumption of at least two hosts, and PRUNE then rightly
      // deletes the degree-1 switch.
      Topology t;
      const NodeId sw = t.add_switch();
      const NodeId mapper_host = t.add_host("mapper");
      t.connect(mapper_host, 0, sw, entry);
      int extras = 0;
      for (topo::Port p = 0; p < topo::kSwitchPorts; ++p) {
        if (p == entry || !((mask >> static_cast<unsigned>(p)) & 1u)) {
          continue;
        }
        if (extras % 2 == 0) {
          const NodeId h =
              t.add_host(std::string("h").append(std::to_string(p)));
          t.connect(h, 0, sw, p);
        } else {
          const NodeId stub = t.add_switch();
          t.connect(stub, 3, sw, p);
          const NodeId h =
              t.add_host(std::string("s").append(std::to_string(p)));
          t.connect(h, 0, stub, 5);
        }
        ++extras;
      }
      simnet::Network net(t);
      probe::ProbeEngine engine(net, mapper_host);
      mapper::MapperConfig config;
      // A fixed generous depth: Q+D+1 is undefined for the mask-0 case
      // (a single host), and every path here is at most 4 hops anyway.
      config.search_depth = 6;
      const auto result = mapper::BerkeleyMapper(engine, config).run();
      ASSERT_TRUE(topo::isomorphic(result.map, topo::core(t)))
          << "entry " << entry << " mask " << mask;
    }
  }
}

TEST(ExhaustivePatterns, MapperPositionIndependence) {
  // Subcluster C mapped from every one of its 36 hosts.
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const Topology expected = topo::core(t);
  for (const NodeId mapper_host : t.hosts()) {
    simnet::Network net(t);
    probe::ProbeEngine engine(net, mapper_host);
    mapper::MapperConfig config;
    config.search_depth = topo::search_depth(t, mapper_host);
    const auto result = mapper::BerkeleyMapper(engine, config).run();
    ASSERT_TRUE(topo::isomorphic(result.map, expected))
        << "mapper " << t.name(mapper_host);
  }
}

// ------------------------------------------------------ alias deep chains --

TEST(AliasChains, ShiftsAccumulateThroughRepeatedMerges) {
  // Four replicates of one switch discovered through different entries,
  // merged pairwise into a chain: resolving any of them must report the
  // cumulative shift to the canonical survivor.
  mapper::ModelGraph m;
  std::vector<mapper::VertexId> sw;
  std::vector<mapper::VertexId> anchors;
  // Switch i sees host "anchor" at slot 3 - i (so merging i into 0 shifts
  // by i).
  for (int i = 0; i < 4; ++i) {
    sw.push_back(m.add_switch_vertex(simnet::Route{i}));
    anchors.push_back(
        m.add_host_vertex(simnet::Route{i, 1}, "anchor"));
    m.add_edge(sw.back(), 3 - i, anchors.back(), 0);
    m.stabilize();
  }
  for (int i = 1; i < 4; ++i) {
    const auto r = m.resolve(sw[static_cast<std::size_t>(i)]);
    EXPECT_EQ(r.vertex, sw[0]) << i;
    EXPECT_EQ(r.shift, i) << i;  // slot (3 - i) + i == 3
  }
  EXPECT_EQ(m.live_vertices(), 2u);  // one switch, one host
}

TEST(AliasChains, ResolutionIsStableAfterPathCompression) {
  mapper::ModelGraph m;
  const auto a = m.add_switch_vertex({});
  const auto ha = m.add_host_vertex(simnet::Route{1}, "x");
  m.add_edge(a, 2, ha, 0);
  const auto b = m.add_switch_vertex(simnet::Route{5});
  const auto hb = m.add_host_vertex(simnet::Route{5, 1}, "x");
  m.add_edge(b, -1, hb, 0);
  m.stabilize();
  const auto first = m.resolve(b);
  const auto second = m.resolve(b);  // compressed path
  EXPECT_EQ(first.vertex, second.vertex);
  EXPECT_EQ(first.shift, second.shift);
}

// ------------------------------------------------------------ parser fuzz --

TEST(ParserFuzz, MutatedInputsFailCleanlyOrParse) {
  common::Rng rng(272727);
  const std::string valid = topo::to_text(topo::star(3, 2));
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = valid;
    const auto mutations = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < mutations; ++k) {
      switch (rng.below(4)) {
        case 0: {  // truncate
          text = text.substr(0, rng.below(text.size() + 1));
          break;
        }
        case 1: {  // flip a character
          if (!text.empty()) {
            text[static_cast<std::size_t>(rng.below(text.size()))] =
                static_cast<char>(rng.range(32, 126));
          }
          break;
        }
        case 2: {  // duplicate a random line
          const auto pos = rng.below(text.size() + 1);
          const auto line_start = text.rfind('\n', pos);
          const auto line_end = text.find('\n', pos);
          if (line_end != std::string::npos) {
            const auto start =
                line_start == std::string::npos ? 0 : line_start + 1;
            text.insert(line_end + 1,
                        text.substr(start, line_end - start + 1));
          }
          break;
        }
        case 3: {  // splice in garbage
          text.insert(static_cast<std::size_t>(rng.below(text.size() + 1)),
                      "wire bogus -3 q 99\n");
          break;
        }
        default:
          break;
      }
    }
    try {
      const Topology t = topo::from_text(text);
      // Parsed: whatever came out must satisfy the class invariants.
      EXPECT_EQ(t.hosts().size(), t.num_hosts());
      EXPECT_EQ(t.wires().size(), t.num_wires());
    } catch (const std::runtime_error&) {
      // Clean rejection is the expected outcome for most mutants.
    }
  }
}

}  // namespace
}  // namespace sanmap
