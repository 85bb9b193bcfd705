#include "routing/engine.hpp"

namespace sanmap::routing {

RoutingResult compute_routes(const topo::Topology& topo, EngineKind /*kind*/,
                             const UpDownOptions& options,
                             std::uint64_t seed) {
  return compute_updown_routes(topo, options, seed);
}

}  // namespace sanmap::routing
