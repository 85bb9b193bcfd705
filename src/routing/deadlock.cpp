#include "routing/deadlock.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"

namespace sanmap::routing {

namespace {

/// Dense channel ids: wire * 2 + direction.
std::size_t channel_id(const Channel& c) {
  return static_cast<std::size_t>(c.wire) * 2 +
         static_cast<std::size_t>(c.a_to_b);
}

Channel channel_from_id(std::size_t id) {
  return Channel{static_cast<topo::WireId>(id / 2), (id % 2) != 0};
}

DeadlockAnalysis analyze(const topo::Topology& topo,
                         const std::vector<std::vector<Channel>>& paths) {
  const std::size_t num_channels = topo.wire_capacity() * 2;
  std::vector<std::vector<std::size_t>> deps(num_channels);
  std::size_t dependency_count = 0;
  for (const auto& path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::size_t from = channel_id(path[i]);
      const std::size_t to = channel_id(path[i + 1]);
      auto& list = deps[from];
      if (std::find(list.begin(), list.end(), to) == list.end()) {
        list.push_back(to);
        ++dependency_count;
      }
    }
  }

  DeadlockAnalysis result;
  result.channels = num_channels;
  result.dependencies = dependency_count;

  // Iterative three-color DFS for a cycle.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(num_channels, kWhite);
  std::vector<std::size_t> parent(num_channels, num_channels);
  for (std::size_t start = 0; start < num_channels; ++start) {
    if (color[start] != kWhite) {
      continue;
    }
    struct Frame {
      std::size_t node;
      std::size_t next_child = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_child < deps[frame.node].size()) {
        const std::size_t child = deps[frame.node][frame.next_child++];
        if (color[child] == kGray) {
          // Cycle found: walk the gray stack back to `child`.
          std::vector<Channel> cycle;
          cycle.push_back(channel_from_id(child));
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            cycle.push_back(channel_from_id(it->node));
            if (it->node == child) {
              break;
            }
          }
          std::reverse(cycle.begin(), cycle.end());
          result.deadlock_free = false;
          result.cycle = std::move(cycle);
          return result;
        }
        if (color[child] == kWhite) {
          color[child] = kGray;
          stack.push_back(Frame{child, 0});
        }
      } else {
        color[frame.node] = kBlack;
        stack.pop_back();
      }
    }
  }
  result.deadlock_free = true;
  return result;
}

}  // namespace

std::vector<std::vector<Channel>> route_channel_paths(
    const topo::Topology& topo, const RoutingResult& routes) {
  std::vector<std::vector<Channel>> paths;
  paths.reserve(routes.routes.size());
  for (const auto& [key, route] : routes.routes) {
    std::vector<Channel> channels;
    channels.reserve(route.wires.size());
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const topo::Wire& wire = topo.wire(route.wires[i]);
      channels.push_back(Channel{route.wires[i],
                                 wire.a.node == route.nodes[i]});
    }
    paths.push_back(std::move(channels));
  }
  return paths;
}

DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes) {
  return analyze(topo, route_channel_paths(topo, routes));
}

DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths) {
  return analyze(topo, paths);
}

bool updown_compliant(const RoutingResult& routes) {
  const UpDownOrientation& orientation = routes.orientation;
  for (const auto& [key, route] : routes.routes) {
    bool went_down = false;
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool up = orientation.goes_up(route.wires[i], route.nodes[i]);
      if (up && went_down) {
        return false;  // a turn from a down edge onto an up edge
      }
      if (!up) {
        went_down = true;
      }
    }
  }
  return true;
}

}  // namespace sanmap::routing
