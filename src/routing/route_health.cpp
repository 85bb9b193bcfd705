#include "routing/route_health.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::routing {

namespace {

/// A map the router can actually accept: the orientation constructor
/// SANMAP_CHECKs connectivity and switch presence, and the distributor
/// needs the master. A partial remap of a quarantined region can violate
/// any of these — the self-heal loop must escalate to a full recompute
/// instead of crashing through a router precondition (the
/// orientation would be dereferencing labels of nodes it never saw).
bool routable_map(const topo::Topology& map, const std::string& master_name,
                  std::string& why) {
  if (map.num_switches() < 1) {
    why = "no switches";
    return false;
  }
  if (!map.find_host(master_name).has_value()) {
    why = "master host " + master_name + " is missing";
    return false;
  }
  if (!topo::connected(map)) {
    why = "map is disconnected";
    return false;
  }
  return true;
}

}  // namespace

RouteHealthReport check_routes(simnet::Network& net,
                               const RoutingResult& routes,
                               const topo::Topology& map,
                               common::SimTime at) {
  const topo::Topology& live = net.topology();
  const auto& cost = net.cost();
  RouteHealthReport report;
  for (const auto& [pair, route] : routes.routes) {
    const std::string& src_name = map.name(pair.first);
    const std::string& dst_name = map.name(pair.second);
    const auto live_src = live.find_host(src_name);
    SANMAP_CHECK_MSG(live_src.has_value(),
                     "mapped host " << src_name
                                    << " does not exist in the fabric");
    ++report.routes_checked;
    const auto delivery =
        net.send(*live_src, route.turns, nullptr, at + report.elapsed);
    if (delivery.delivered() &&
        live.name(delivery.destination) == dst_name) {
      report.elapsed +=
          cost.send_overhead + delivery.latency + cost.receive_overhead;
      continue;
    }
    report.elapsed += cost.send_overhead + cost.probe_timeout;
    report.broken.push_back(BrokenRoute{src_name, dst_name, delivery.status});
  }
  return report;
}

SelfHealResult self_heal_routes(simnet::Network& net,
                                topo::Topology initial_map,
                                const SelfHealConfig& config, RemapFn remap,
                                common::SimTime start) {
  SANMAP_CHECK(config.max_iterations >= 1);
  SANMAP_CHECK_MSG(!config.master_name.empty(),
                   "SelfHealConfig::master_name must name the master host");

  SelfHealResult result;
  topo::Topology map = std::move(initial_map);
  common::SimTime clock = start;

  for (int iter = 0; iter < config.max_iterations; ++iter) {
    ++result.iterations;
    std::string unroutable;
    if (!routable_map(map, config.master_name, unroutable)) {
      ++result.escalated_remaps;
      SANMAP_LOG(kWarning, "route-health",
                 "iteration " << iter << ": map is unroutable (" << unroutable
                              << "); escalating to a full recompute");
      if (iter + 1 < config.max_iterations) {
        map = remap(clock);
        continue;
      }
      break;  // budget exhausted: give up unconverged, map returned as-is
    }
    // Compute on the current map; distribute and validate on the live
    // fabric. Routes are map-space turn sequences (physically valid) with
    // hosts matched by name.
    const RoutingResult routes =
        compute_updown_routes(map, config.updown, config.route_seed);
    result.final_distribution =
        distribute_tables(net, routes, map, config.master_name, clock);
    clock += result.final_distribution.elapsed;
    result.final_report = check_routes(net, routes, map, clock);
    clock += result.final_report.elapsed;
    result.total_broken += result.final_report.broken.size();

    if (result.final_report.healthy() && result.final_distribution.complete) {
      result.converged = true;
      break;
    }
    SANMAP_LOG(kInfo, "route-health",
               "iteration " << iter << ": "
                            << result.final_report.broken.size()
                            << " broken route(s), distribution "
                            << (result.final_distribution.complete
                                    ? "complete"
                                    : "incomplete")
                            << "; remapping");
    if (iter + 1 < config.max_iterations) {
      map = remap(clock);  // repair against the live network, then retry
    }
  }

  result.map = std::move(map);
  result.elapsed = clock;
  return result;
}

}  // namespace sanmap::routing
