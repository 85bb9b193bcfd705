// compute_routes: the route computation on the service's epoch path.
//
// UP*/DOWN* (§5.5) is the only routing engine; compute_routes forwards to
// compute_updown_routes and is byte-identical to calling it. It stays a
// separate, out-of-line entry point because the benchmark (perfbench/)
// times routing by wrapping this exact symbol at link time, and
// service::build_snapshot calls through it so that wrapper sees every epoch.
#pragma once

#include <cstdint>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// Part of compute_routes' signature, which the benchmark's wrapper names
/// by its mangled form. UP*/DOWN* is the only value.
enum class EngineKind : std::uint8_t {
  kUpDown = 0,
};

/// compute_updown_routes(topo, options, seed).
RoutingResult compute_routes(const topo::Topology& topo, EngineKind kind,
                             const UpDownOptions& options = {},
                             std::uint64_t seed = 1);

}  // namespace sanmap::routing
