#include "service/snapshot.hpp"

#include <utility>

#include "common/check.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"

namespace sanmap::service {

MapSnapshot build_snapshot(const topo::Topology& map,
                           const SnapshotOptions& options,
                           common::SimTime created_at) {
  topo::Topology compacted = map.compacted();

  routing::UpDownOptions updown;
  if (!options.root_name.empty()) {
    for (const topo::NodeId s : compacted.switches()) {
      if (compacted.name(s) == options.root_name) {
        updown.root = s;
      }
    }
    SANMAP_CHECK_MSG(updown.root.has_value(),
                     "snapshot root " << options.root_name
                                      << " names no switch of the map");
  }
  routing::RoutingResult routes = routing::compute_routes(
      compacted, routing::EngineKind::kUpDown, updown, options.route_seed);
  if (options.optimize) {
    routing::optimize_routes(compacted, routes);
  }
  return MapSnapshot{.created_at = created_at,
                     .map = std::move(compacted),
                     .routes = std::move(routes),
                     .options = options};
}

}  // namespace sanmap::service
