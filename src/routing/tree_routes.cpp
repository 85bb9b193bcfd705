#include "routing/tree_routes.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"

namespace sanmap::routing {

RoutingResult compute_tree_routes(const topo::Topology& topo,
                                  const UpDownOptions& options) {
  RoutingResult result{UpDownOrientation(topo, options), {}, {}};
  const topo::NodeId root = result.orientation.root();

  // BFS tree: parent wire per node.
  std::vector<topo::WireId> parent_wire(topo.node_capacity(),
                                        topo::kInvalidWire);
  std::vector<topo::NodeId> parent(topo.node_capacity(), topo::kInvalidNode);
  std::vector<int> depth(topo.node_capacity(), -1);
  std::deque<topo::NodeId> queue{root};
  depth[root] = 0;
  while (!queue.empty()) {
    const topo::NodeId n = queue.front();
    queue.pop_front();
    for (topo::Port p = 0; p < topo.port_count(n); ++p) {
      const auto w = topo.wire_at(n, p);
      if (!w) {
        continue;
      }
      const topo::PortRef far = topo.wire(*w).opposite(topo::PortRef{n, p});
      if (far.node != n && depth[far.node] == -1) {
        depth[far.node] = depth[n] + 1;
        parent[far.node] = n;
        parent_wire[far.node] = *w;
        queue.push_back(far.node);
      }
    }
  }

  // Route src -> dst: climb both to the LCA, then splice.
  const auto hosts = topo.hosts();
  for (const topo::NodeId src : hosts) {
    for (const topo::NodeId dst : hosts) {
      if (src == dst) {
        continue;
      }
      SANMAP_CHECK_MSG(depth[src] >= 0 && depth[dst] >= 0,
                       "tree routing requires a connected topology");
      // Wire chains from each endpoint up to the LCA.
      std::vector<topo::WireId> up;      // src upward
      std::vector<topo::WireId> down;    // dst upward (reversed later)
      topo::NodeId a = src;
      topo::NodeId b = dst;
      while (depth[a] > depth[b]) {
        up.push_back(parent_wire[a]);
        a = parent[a];
      }
      while (depth[b] > depth[a]) {
        down.push_back(parent_wire[b]);
        b = parent[b];
      }
      while (a != b) {
        up.push_back(parent_wire[a]);
        a = parent[a];
        down.push_back(parent_wire[b]);
        b = parent[b];
      }

      HostRoute route;
      route.nodes.push_back(src);
      topo::NodeId at = src;
      for (const topo::WireId w : up) {
        at = topo.wire(w).opposite(at).node;
        route.wires.push_back(w);
        route.nodes.push_back(at);
      }
      for (auto it = down.rbegin(); it != down.rend(); ++it) {
        at = topo.wire(*it).opposite(at).node;
        route.wires.push_back(*it);
        route.nodes.push_back(at);
      }
      SANMAP_CHECK(route.nodes.back() == dst);
      recompute_turns(topo, route);
      result.routes.emplace(std::make_pair(src, dst), std::move(route));
    }
  }
  return result;
}

}  // namespace sanmap::routing
