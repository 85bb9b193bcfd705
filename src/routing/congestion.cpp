#include "routing/congestion.hpp"

namespace sanmap::routing {

std::vector<std::size_t> channel_loads(const topo::Topology& topo,
                                       const ChannelPaths& paths) {
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);
  for (const ChannelId id : paths.ids) {
    ++load[id];
  }
  return load;
}

CongestionStats channel_load(const topo::Topology& topo,
                             const RoutingResult& routes) {
  const std::vector<std::size_t> load =
      channel_loads(topo, route_channel_paths(topo, routes));
  std::size_t total_hops = 0;
  std::size_t root_hops = 0;
  const topo::NodeId root = routes.orientation.root();
  for (const auto& [key, route] : routes.routes) {
    total_hops += route.wires.size();
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      if (route.nodes[i] == root || route.nodes[i + 1] == root) {
        ++root_hops;
      }
    }
  }

  CongestionStats stats;
  std::size_t used = 0;
  std::size_t sum = 0;
  for (std::size_t c = 0; c < load.size(); ++c) {
    if (load[c] == 0) {
      continue;
    }
    ++used;
    sum += load[c];
    if (load[c] > stats.max_channel_load) {
      stats.max_channel_load = load[c];
      stats.hottest_wire = static_cast<topo::WireId>(c / 2);
    }
  }
  stats.used_channels = used;
  stats.mean_channel_load =
      used == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(used);
  stats.root_traffic_share =
      total_hops == 0
          ? 0.0
          : static_cast<double>(root_hops) / static_cast<double>(total_hops);
  return stats;
}

}  // namespace sanmap::routing
