// Timed fault injection and the self-healing robust session (the ISSUE's
// acceptance scenario, extending §5's fault-tolerance discussion).
//
// A FaultSchedule kills two links mid-mapping — one bridge that severs a
// tail subcluster, one redundant mesh link — while 10% cross-traffic
// destroys probes. The one-shot Berkeley pass returns a stale map (it saw
// wires that died under it); the robust session converges to the map of
// the *surviving* network (Theorem 1's N - F with F taken at convergence
// time), reporting the cut-off region by name. Two further sections show
// flapping-link quarantine and the service's refresh loop driving its
// distributed UP*/DOWN* routes back to 100% delivery after a link death.
// Everything is deterministic under the fixed seeds.
#include <iostream>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "mapper/robust_mapper.hpp"
#include "routing/route_health.hpp"
#include "service/refresh_loop.hpp"
#include "simnet/fault_schedule.hpp"

namespace {

using namespace sanmap;

/// The mapper's component of the surviving topology, stripped of its
/// separated set: what any mapper can be held to once the schedule fired.
topo::Topology surviving_core(const topo::Topology& full,
                              const simnet::FaultSchedule& schedule,
                              common::SimTime at, topo::NodeId mapper_host) {
  topo::Topology alive = schedule.surviving(full, at);
  std::vector<int> component;
  topo::components(alive, component);
  for (const topo::NodeId n : alive.nodes()) {
    if (component[n] != component[mapper_host]) {
      alive.remove_node(n);
    }
  }
  return topo::core(alive);
}

topo::Topology mesh_with_tail(topo::WireId& bridge, topo::WireId& mesh_link) {
  topo::Topology t = topo::mesh(3, 3, 1);
  const topo::NodeId tail_switch = t.add_switch("tail-s");
  const topo::NodeId tail_host = t.add_host("tail-h");
  bridge = t.connect_any(tail_switch, t.switches()[4]);
  t.connect_any(tail_host, tail_switch);
  mesh_link = bridge;
  for (topo::Port p = 0; p < t.port_count(t.switches()[0]); ++p) {
    const auto far = t.peer(t.switches()[0], p);
    if (far && t.is_switch(far->node)) {
      mesh_link = *t.wire_at(t.switches()[0], p);
      break;
    }
  }
  return t;
}

void acceptance_section(std::int64_t runs, std::uint64_t base_seed) {
  std::cout << "=== two link deaths mid-mapping, 10% cross-traffic ===\n";
  topo::WireId bridge = 0;
  topo::WireId mesh_link = 0;
  const topo::Topology t = mesh_with_tail(bridge, mesh_link);
  const topo::NodeId mapper_host = t.hosts().front();

  mapper::MapperConfig base;
  base.search_depth = topo::search_depth(t, mapper_host) + 2;

  // An undisturbed pass — same traffic model and retry level, no schedule —
  // to express fault instants as fractions of the real pass duration.
  common::SimTime pass_time;
  {
    simnet::FaultModel faults;
    faults.traffic_intensity = 0.10;
    simnet::Network undisturbed(t, simnet::CollisionModel::kCutThrough,
                                simnet::CostModel{}, faults, base_seed);
    probe::ProbeEngine engine(undisturbed, mapper_host);
    engine.set_retries(4);
    pass_time = mapper::BerkeleyMapper(engine, base).run().elapsed;
  }
  std::cout << "undisturbed pass: " << pass_time.str()
            << "; bridge dies at the given fraction of it, the redundant "
               "mesh link 10% later\n";

  common::Table table({"fault at", "seed", "one-shot", "robust", "passes",
                       "sweeps", "probes", "cut off", "quarantined"});
  for (const double fraction : {0.25, 0.50, 0.75}) {
    for (std::int64_t run = 0; run < runs; ++run) {
      const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(run);
      simnet::FaultSchedule schedule;
      schedule.link_down(bridge,
                         common::SimTime::from_us(pass_time.to_us() * fraction));
      schedule.link_down(
          mesh_link,
          common::SimTime::from_us(pass_time.to_us() * (fraction + 0.10)));
      simnet::FaultModel faults;
      faults.traffic_intensity = 0.10;

      const auto make_net = [&] {
        simnet::Network net(t, simnet::CollisionModel::kCutThrough,
                            simnet::CostModel{}, faults, seed);
        net.attach_faults(&schedule);
        return net;
      };

      // One-shot Berkeley: correct only for a failure set stable over the
      // run, which this schedule violates by construction.
      std::string one_shot;
      {
        simnet::Network net = make_net();
        probe::ProbeEngine engine(net, mapper_host);
        engine.set_retries(4);
        const auto result = mapper::BerkeleyMapper(engine, base).run();
        one_shot = topo::isomorphic(
                       result.map, surviving_core(t, schedule, result.elapsed,
                                                  mapper_host))
                       ? "exact"
                       : "stale";
      }

      simnet::Network net = make_net();
      probe::ProbeEngine engine(net, mapper_host);
      mapper::RobustConfig config;
      config.base = base;
      config.initial_retries = 4;
      const auto result = mapper::RobustMapper(engine, config).run();
      const bool exact = topo::isomorphic(
          result.map,
          surviving_core(t, schedule, result.elapsed, mapper_host));
      table.add_row({common::fmt(fraction, 2) + " pass",
                     std::to_string(seed),
                     one_shot,
                     result.converged && exact ? "exact" : "WRONG",
                     std::to_string(result.passes),
                     std::to_string(result.sweep_rounds),
                     std::to_string(result.probes_used),
                     std::to_string(result.cut_off.size()),
                     std::to_string(result.quarantined_ports.size())});
    }
  }
  std::cout << table
            << "(cut off counts the nodes the session reported severed — "
               "the tail switch and host once the bridge died under it)\n\n";
}

void flapping_section() {
  std::cout << "=== flapping-link quarantine ===\n";
  topo::Topology t;
  const topo::NodeId h0 = t.add_host("m");
  const topo::NodeId h1 = t.add_host("b");
  const topo::NodeId s0 = t.add_switch();
  const topo::NodeId s1 = t.add_switch();
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, s1, 0);
  const topo::WireId flapper = t.connect(s0, 2, s1, 1);
  t.connect(s1, 2, h1, 0);

  simnet::FaultSchedule schedule;
  schedule.flapping_link(flapper, common::SimTime::ms(64), 0.5);

  simnet::Network net(t);
  net.attach_faults(&schedule);
  probe::ProbeEngine engine(net, h0);
  mapper::RobustConfig config;
  config.base.search_depth = topo::search_depth(t, h0) + 2;
  // Quiet fabric: confirmed transitions are real state changes, so skip
  // the second-chance remap the default threshold reserves for traffic.
  config.quarantine_threshold = 2;
  const auto result = mapper::RobustMapper(engine, config).run();

  topo::Topology stable = t;
  stable.disconnect(flapper);
  std::cout << "parallel cables, one flapping (64 ms period, 50% duty): "
            << (result.converged ? "converged" : "DID NOT CONVERGE") << " in "
            << result.passes << " pass(es), " << result.sweep_rounds
            << " sweep round(s), " << result.probes_used << " probes\n"
            << "map matches the stable fabric: "
            << (topo::isomorphic(result.map, topo::core(stable)) ? "yes"
                                                                 : "NO")
            << "\n";
  for (const auto& key : result.quarantined_ports) {
    std::cout << "quarantined port " << key << "\n";
  }
  std::cout << "\n";
}

void route_health_section() {
  std::cout << "=== route health: break, detect, remap, redistribute ===\n";
  const topo::Topology t = topo::torus(3, 3, 1);
  topo::WireId victim = t.wires().front();
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (t.is_switch(wire.a.node) && t.is_switch(wire.b.node)) {
      victim = w;
      break;
    }
  }

  // The service's self-healing loop: it bootstraps on the intact fabric,
  // then every tick checks the served routes and, on breakage, remaps,
  // redistributes and publishes through the certifying gate.
  simnet::FaultSchedule schedule;
  simnet::Network net(t);
  net.attach_faults(&schedule);
  service::MapCatalog catalog;
  service::RefreshConfig config;
  config.master_name = t.name(t.hosts().front());
  service::RefreshLoop loop(net, catalog, config);
  const service::TickReport boot = loop.bootstrap();
  const common::SimTime death = loop.now() + common::SimTime::ms(1);
  schedule.link_down(victim, death);
  std::cout << "bootstrap epoch " << boot.epoch_after << " at "
            << boot.at.str() << " (link dies at " << death.str() << ")\n";

  constexpr int kMaxTicks = 8;
  std::size_t broken_seen = 0;
  int ticks = 0;
  bool healed = false;
  while (ticks < kMaxTicks && !healed) {
    const service::TickReport report = loop.tick();
    ++ticks;
    broken_seen += report.broken;
    healed = report.swapped();
  }

  const service::SnapshotPtr current = catalog.current();
  const auto replay =
      routing::check_routes(net, current->routes, current->map, loop.now());
  std::cout << "broken routes seen: " << broken_seen << "; ";
  if (healed) {
    std::cout << "healed (epoch " << current->epoch << ") in " << ticks
              << " tick(s)";
  } else {
    std::cout << "DID NOT HEAL in " << ticks << " tick(s)";
  }
  std::cout << "; final delivery "
            << common::fmt_percent(replay.delivery_ratio(), 1) << " ("
            << replay.routes_checked << " routes on the surviving fabric)\n";
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("runs", "3", "seeds per fault instant in the acceptance table");
  flags.define("seed", "900",
               "base traffic seed; run r uses seed + r, so any WRONG row can "
               "be replayed exactly with --runs 1 --seed <printed seed>");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  std::cout << "=== timed faults and the self-healing robust session ===\n\n";
  acceptance_section(flags.get_int("runs"),
                     static_cast<std::uint64_t>(flags.get_int("seed")));
  flapping_section();
  route_health_section();
  return 0;
}
