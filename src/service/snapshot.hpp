// One immutable map+route epoch of the map service.
//
// The paper stops at "routes are computed and distributed to all network
// interfaces"; a production mapper host keeps doing that forever. The unit
// it keeps producing is a MapSnapshot: a compacted map of the fabric, the
// full UP*/DOWN* route set computed on it, and the safety verdict of the
// channel-dependency deadlock analysis — bundled so no consumer can ever
// pair a route table with the wrong map or skip the safety check.
//
// Snapshots are immutable after construction and shared by reference count;
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
  /// Run the skew/funnel RouteOptimizer pass over the table before the
  /// safety verdict (the optimizer re-proves legality after every rewrite,
  /// and the snapshot verdict re-checks the final table regardless).
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

  // -- safety verdict (filled by build_snapshot) ---------------------------
  /// Dally & Seitz channel-dependency analysis: acyclic, hence mutually
  /// deadlock-free. MapCatalog refuses to publish when false.
  bool deadlock_free = false;
  /// Every route obeys the UP*/DOWN* rule (no down-to-up turn).
  bool compliant = false;
  std::size_t channels = 0;
  std::size_t dependencies = 0;

  // -- cached route-quality summary ----------------------------------------
  double mean_hops = 0.0;
  int max_hops = 0;
};

using SnapshotPtr = std::shared_ptr<const MapSnapshot>;

/// Builds a snapshot from a map: compacts it, resolves the root by name,
/// computes the routes, and runs the deadlock analysis. The map must be
/// connected with at least one switch and one host (the router's
/// precondition). Throws via SANMAP_CHECK when `options.root_name` names no
/// switch of the map.
MapSnapshot build_snapshot(const topo::Topology& map,
                           const SnapshotOptions& options,
                           common::SimTime created_at);

}  // namespace sanmap::service
