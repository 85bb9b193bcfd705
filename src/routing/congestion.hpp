// Channel-load analysis for a route set.
//
// §5.5 notes the known weaknesses of UP*/DOWN*: "increased congestion about
// the root" and strong topology dependence ("the goodness of UP*/DOWN*
// routes is known to be highly topology-dependent"). These metrics make
// that measurable: per-channel route counts, the hottest wire, and how much
// of the total traffic crosses the root switch.
#pragma once

#include <cstddef>
#include <vector>

#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

struct CongestionStats {
  /// Routes crossing the most loaded directed channel.
  std::size_t max_channel_load = 0;
  /// Mean load over channels that carry at least one route.
  double mean_channel_load = 0.0;
  /// Channels carrying at least one route (out of 2 * wires).
  std::size_t used_channels = 0;
  /// The wire whose busier direction is the hottest channel.
  topo::WireId hottest_wire = topo::kInvalidWire;
  /// Fraction of all route-hops that touch the orientation's root switch.
  double root_traffic_share = 0.0;
};

/// Routes crossing each directed channel, indexed by channel_id(); sized
/// 2 * wire_capacity().
std::vector<std::size_t> channel_loads(const topo::Topology& topo,
                                       const ChannelPaths& paths);

CongestionStats channel_load(const topo::Topology& topo,
                             const RoutingResult& routes);

}  // namespace sanmap::routing
