// All-pairs UP*/DOWN*-compliant route computation (§5.5).
//
// Following the paper, shortest compliant paths are computed with
// Floyd-Warshall: once over the "up" digraph, once over the "down" digraph
// (its reverse); a host-to-host route is the best up-prefix + down-suffix
// through any apex. Where parallel cables join two switches, the emitter
// picks among them at random for load balance.
//
// Routes are emitted both as hop paths (for the deadlock analysis) and as
// source-route turn sequences ready for the network interface (§2.2
// relative addressing).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "routing/updown.hpp"
#include "simnet/route.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// One computed host-to-host route.
struct HostRoute {
  /// The source-route turn sequence a NIC would prepend to a message.
  simnet::Route turns;
  /// Node path: src host, switches..., dst host.
  std::vector<topo::NodeId> nodes;
  /// Wires traversed; wires[i] connects nodes[i] to nodes[i+1].
  std::vector<topo::WireId> wires;

  [[nodiscard]] int hops() const { return static_cast<int>(wires.size()); }
};

/// Facts the RouteOptimizer declares about a table it rewrote, carried
/// alongside the routes so the analysis layer can audit what it *meant*
/// instead of re-deriving expectations it cannot know.
struct TableMeta {
  /// A RouteOptimizer pass rewrote the table after emission.
  bool optimized = false;
  /// Deliberate per-channel route counts for parallel-cable groups, keyed
  /// by (wire, a-to-b). Only the optimizer fills this in; when present for
  /// a whole group, sanlint's SL403 audits the table against the plan (and
  /// the plan's joint balance) instead of assuming a per-direction uniform
  /// spread.
  std::map<std::pair<topo::WireId, bool>, std::size_t> cable_plan;
};

struct RoutingResult {
  UpDownOrientation orientation;
  /// Routes for every ordered pair of distinct hosts.
  std::map<std::pair<topo::NodeId, topo::NodeId>, HostRoute> routes;
  /// What the optimizer declared about the table, if it ran.
  TableMeta meta;

  [[nodiscard]] const HostRoute& route(topo::NodeId src,
                                       topo::NodeId dst) const;

  /// The per-source route table (what the paper distributes to each
  /// network interface).
  [[nodiscard]] std::vector<const HostRoute*> table_for(
      topo::NodeId src) const;

  /// Total and maximum hop counts — the usual route-quality summary.
  [[nodiscard]] double mean_hops() const;
  [[nodiscard]] int max_hops() const;
};

/// Computes UP*/DOWN* routes over a (mapped) topology. The topology must be
/// connected with at least one switch and one host. `seed` drives the
/// random choice among parallel cables.
RoutingResult compute_updown_routes(const topo::Topology& topo,
                                    const UpDownOptions& options = {},
                                    std::uint64_t seed = 1);

/// Rebuilds `route.turns` from `route.nodes`/`route.wires` (§2.2 relative
/// addressing). Used by everything that rewrites a route's wire choice —
/// the emitter, the optimizer, sanlint's sabotage detours — so turn
/// emission has exactly one implementation.
void recompute_turns(const topo::Topology& topo, HostRoute& route);

}  // namespace sanmap::routing
