// One immutable map+route epoch of the map service.
//
// The paper stops at "routes are computed and distributed to all network
// interfaces"; a production mapper host keeps doing that forever. The unit
// it keeps producing is a MapSnapshot: a compacted map of the fabric and the
// full UP*/DOWN* route set computed on it, bundled so no consumer can ever
// pair a route table with the wrong map. Its safety verdict is stamped by
// the one certifier, MapCatalog's publish gate, when it publishes it.
//
// Snapshots are immutable once published and shared by reference count;
// MapCatalog publishes them under monotonically increasing epochs and
// readers hold them for as long as a query is in flight, so a snapshot's
// lifetime is decoupled from how fast the catalog moves on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/sim_time.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::service {

/// How a snapshot's routes were parameterized — enough to recompute them
/// bit-for-bit on the snapshot's map (the router is deterministic given
/// map, root, and seed). The codec persists these instead of trusting
/// stored route bytes blindly.
struct SnapshotOptions {
  /// UP*/DOWN* root override by switch name; empty picks the natural root
  /// (the switch farthest from all hosts). Names survive compaction and
  /// serialization, node ids do not.
  std::string root_name;
  /// Seed for the route emitter's parallel-cable load-balance choice.
  std::uint64_t route_seed = 1;
  /// Provenance tag ("bootstrap", "remap", "file", ...) for diagnostics.
  std::string source;
  /// Run the skew/funnel RouteOptimizer pass over the table (the optimizer
  /// re-proves legality after every rewrite, and the publish gate
  /// re-certifies the final table regardless).
  bool optimize = false;
};

struct MapSnapshot {
  /// Catalog epoch; 0 until published (MapCatalog assigns on publish).
  std::uint64_t epoch = 0;
  /// Virtual-clock instant the snapshot was built at.
  common::SimTime created_at{};

  /// The map, compacted (dense ids, no tombstones) so route node ids and
  /// serialized form agree.
  topo::Topology map;
  /// All-pairs UP*/DOWN* routes computed on `map`.
  routing::RoutingResult routes;
  SnapshotOptions options;

  // -- safety stamp ---------------------------------------------------------
  // Written by the publish gate from its certificates; false/0 until then.
  /// The channel-dependency graph is acyclic (Dally & Seitz).
  bool deadlock_free = false;
  /// No route takes a down-to-up turn (UP*/DOWN* legality).
  bool compliant = false;
};

using SnapshotPtr = std::shared_ptr<const MapSnapshot>;

/// Builds an unstamped snapshot from a map: compacts it, resolves the root
/// by name, computes the routes and, when asked, optimizes them. The map must
/// be connected with at least one switch and one host (the router's
/// precondition). Throws via SANMAP_CHECK when `options.root_name` names no
/// switch of the map.
MapSnapshot build_snapshot(const topo::Topology& map,
                           const SnapshotOptions& options,
                           common::SimTime created_at);

}  // namespace sanmap::service
