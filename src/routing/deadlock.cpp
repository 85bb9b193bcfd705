#include "routing/deadlock.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/pair_set.hpp"

namespace sanmap::routing {

namespace {

DeadlockAnalysis analyze(const topo::Topology& topo,
                         const ChannelPaths& paths) {
  const std::size_t num_channels = topo.wire_capacity() * 2;
  // Every dependency once, in first-seen order.
  std::vector<std::pair<ChannelId, ChannelId>> edges;
  common::PairSet seen;
  for (std::size_t r = 0; r < paths.size(); ++r) {
    for (std::size_t i = paths.offsets[r]; i + 1 < paths.offsets[r + 1];
         ++i) {
      if (seen.insert(paths.ids[i], paths.ids[i + 1])) {
        edges.emplace_back(paths.ids[i], paths.ids[i + 1]);
      }
    }
  }
  // Successor lists in one array: channel c's successors are
  // succ[first[c]] .. succ[first[c + 1] - 1], in first-seen order, which
  // fixes the order the DFS below explores them in.
  std::vector<std::size_t> first(num_channels + 1, 0);
  for (const auto& [from, to] : edges) {
    ++first[from + 1];
  }
  for (std::size_t c = 0; c < num_channels; ++c) {
    first[c + 1] += first[c];
  }
  std::vector<ChannelId> succ(edges.size());
  {
    std::vector<std::size_t> fill(first.begin(), first.end() - 1);
    for (const auto& [from, to] : edges) {
      succ[fill[from]++] = to;
    }
  }

  DeadlockAnalysis result;
  result.channels = num_channels;
  result.dependencies = edges.size();

  // Iterative three-color DFS for a cycle.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(num_channels, kWhite);
  struct Frame {
    std::size_t node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  for (std::size_t start = 0; start < num_channels; ++start) {
    if (color[start] != kWhite) {
      continue;
    }
    stack.assign(1, Frame{start, first[start]});
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_child < first[frame.node + 1]) {
        const std::size_t child = succ[frame.next_child++];
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
          stack.push_back(Frame{child, first[child]});
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

void ChannelPaths::add(const std::vector<Channel>& path) {
  for (const Channel& c : path) {
    SANMAP_CHECK_MSG(c.wire < kMaxChannelWires,
                     "wire " << c.wire << " has no 32-bit channel id");
    ids.push_back(static_cast<ChannelId>(channel_id(c)));
  }
  offsets.push_back(ids.size());
}

ChannelPaths route_channel_paths(const topo::Topology& topo,
                                 const RoutingResult& routes) {
  SANMAP_CHECK_MSG(topo.wire_capacity() <= kMaxChannelWires,
                   "too many wires for 32-bit channel ids");
  ChannelPaths paths;
  paths.offsets.reserve(routes.routes.size() + 1);
  for (const auto& [key, route] : routes.routes) {
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const topo::WireId w = route.wires[i];
      paths.ids.push_back(static_cast<ChannelId>(
          channel_id(Channel{w, topo.wire(w).a.node == route.nodes[i]})));
    }
    paths.offsets.push_back(paths.ids.size());
  }
  return paths;
}

DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes) {
  return analyze(topo, route_channel_paths(topo, routes));
}

DeadlockAnalysis analyze_channel_paths(const topo::Topology& topo,
                                       const ChannelPaths& paths) {
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
