// Route-health validation and the self-healing routing loop — closing
// §5.5's cycle ("map, derive routes, distribute") against a network that
// keeps failing after the routes went out.
//
// A route table is only as good as the fabric under it: a link that dies
// after distribution leaves every route crossing it silently broken. The
// validator fires each computed host-pair route from its real source host
// into the live (possibly faulted) network and checks it arrives at the
// intended destination. Routes are in *map space*, but turns are port
// differences, so the unknown per-switch port offsets cancel and the turn
// sequences are physically valid; hosts are matched between map and
// network by their unique names.
//
// self_heal_routes() iterates the full paper pipeline to convergence:
// compute UP*/DOWN* routes on the current map, distribute the tables
// in-band, validate every route, and — when any route is broken — obtain a
// fresh map through a caller-supplied remap callback (typically
// IncrementalMapper repair or a RobustMapper session; a callback keeps
// this layer free of a routing -> mapper dependency) and go around again.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "routing/distribute.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// One route that failed validation.
struct BrokenRoute {
  std::string src;
  std::string dst;
  /// How the live network disposed of the message (kNoSuchWire for a dead
  /// link on the path, kDropped for a dead source host, ...). kDelivered
  /// here means it arrived — at the wrong host (a rewired fabric).
  simnet::DeliveryStatus status = simnet::DeliveryStatus::kDelivered;
};

struct RouteHealthReport {
  std::size_t routes_checked = 0;
  std::vector<BrokenRoute> broken;
  /// Validator-side time: one send/receive (or timeout) per route.
  common::SimTime elapsed{};

  [[nodiscard]] bool healthy() const { return broken.empty(); }
  [[nodiscard]] double delivery_ratio() const {
    return routes_checked == 0
               ? 1.0
               : 1.0 - static_cast<double>(broken.size()) /
                           static_cast<double>(routes_checked);
  }
};

/// Fires every host-pair route of `routes` (computed on `map`) against the
/// live network, starting at instant `at` on the virtual clock and
/// advancing it per check (so a FaultSchedule is sampled at realistic
/// times). A route is healthy iff the message is delivered to the host
/// with the destination's map name.
RouteHealthReport check_routes(simnet::Network& net,
                               const RoutingResult& routes,
                               const topo::Topology& map,
                               common::SimTime at);

/// Produces a fresh map of the live network. Receives the current virtual
/// clock and must advance it by however long the remapping took (a
/// RobustMapper/IncrementalMapper caller forwards its engine's clock).
using RemapFn = std::function<topo::Topology(common::SimTime& clock)>;

struct SelfHealConfig {
  /// Compute+distribute+validate(+remap) cycles before giving up.
  int max_iterations = 4;
  /// Host (by name; must exist in every map) that distributes the tables.
  std::string master_name;
  UpDownOptions updown;
  /// Seed for the route emitter's parallel-cable choice. Reuse it to
  /// recompute the final RoutingResult from the returned map.
  std::uint64_t route_seed = 1;
};

struct SelfHealResult {
  /// The map the final (validated) routes were computed on. Recompute the
  /// routes with compute_updown_routes(map, config.updown,
  /// config.route_seed) — deterministic, and avoids returning a
  /// RoutingResult whose orientation would dangle once the map moves.
  topo::Topology map;
  /// The last iteration's validation outcome.
  RouteHealthReport final_report;
  /// The last iteration's distribution outcome.
  DistributionResult final_distribution;
  int iterations = 0;
  /// All routes validated and all tables delivered within the budget.
  bool converged = false;
  /// Iterations whose map was unroutable (disconnected, switch-free, or
  /// missing the master — e.g. a partial remap of a quarantined region) and
  /// was escalated straight to a full recompute instead of being handed to
  /// the router, whose orientation would have no labels for the missing
  /// region.
  std::size_t escalated_remaps = 0;
  /// Broken routes found across all iterations (repair triggers).
  std::size_t total_broken = 0;
  /// Virtual-clock instant the loop finished at.
  common::SimTime elapsed{};
};

/// Runs the self-healing loop starting from `initial_map` at instant
/// `start`. `remap` is only invoked when a cycle found breakage (never on
/// the last iteration, whose result would be discarded).
SelfHealResult self_heal_routes(simnet::Network& net,
                                topo::Topology initial_map,
                                const SelfHealConfig& config, RemapFn remap,
                                common::SimTime start);

}  // namespace sanmap::routing
