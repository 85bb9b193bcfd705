// Spanning-tree routing: the simplest deadlock-free alternative (§6 asks
// for "more robust strategies for deriving deadlock-free routes than
// UP*/DOWN*"; the spanning tree is the natural baseline to compare
// against).
//
// All traffic follows a single BFS tree — up to the lowest common ancestor,
// then down. This is UP*/DOWN* restricted to tree edges, hence trivially
// deadlock-free, but it ignores every redundant link, so path lengths and
// especially channel congestion are worse; bench_routing's spanning-tree
// rows quantify the gap.
#pragma once

#include "routing/routes.hpp"

namespace sanmap::routing {

/// Computes all-pairs host routes over a BFS spanning tree. Options select
/// the tree root exactly as for UP*/DOWN*. The result reuses RoutingResult,
/// so the deadlock/compliance/congestion analyses apply unchanged.
RoutingResult compute_tree_routes(const topo::Topology& topo,
                                  const UpDownOptions& options = {});

}  // namespace sanmap::routing
