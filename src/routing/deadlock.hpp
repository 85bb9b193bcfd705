// Channel-dependency-graph deadlock analysis (Dally & Seitz, ref [8]).
//
// Channels are the directed halves of every wire. Each route contributes a
// dependency from every channel it holds to the next one it requests; a
// set of routes is mutually deadlock-free iff the resulting dependency
// graph is acyclic. This is the formal check behind §5.5's claim that the
// distributed UP*/DOWN* routes are mutually deadlock-free.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// A directed channel: one direction of one wire.
struct Channel {
  topo::WireId wire = topo::kInvalidWire;
  bool a_to_b = true;

  friend constexpr auto operator<=>(const Channel&, const Channel&) = default;
};

struct DeadlockAnalysis {
  bool deadlock_free = false;
  std::size_t channels = 0;
  std::size_t dependencies = 0;
  /// When a cycle exists: one witness cycle of channels.
  std::vector<Channel> cycle;
};

/// The channel sequence each route holds, in order — the exact dependency
/// inputs analyze_routes works from. Exposed so an independent cycle
/// detector (src/verify's differential deadlock oracle) can be run on the
/// same inputs rather than on its own re-derivation of them.
std::vector<std::vector<Channel>> route_channel_paths(
    const topo::Topology& topo, const RoutingResult& routes);

/// Analyzes a route set over its topology.
DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes);

/// Analyzes explicit channel sequences (for adversarial tests: hand-built
/// route sets that DO deadlock).
DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths);

/// True when every route obeys the UP*/DOWN* rule: no down-to-up turn.
bool updown_compliant(const RoutingResult& routes);

}  // namespace sanmap::routing
