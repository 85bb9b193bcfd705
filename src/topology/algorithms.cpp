#include "topology/algorithms.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "common/check.hpp"

namespace sanmap::topo {

namespace {

/// BFS hop distances from the nearest of `sources` (all live, at distance
/// 0) to every node; -1 where unreachable.
std::vector<int> multi_source_bfs(const Topology& topo,
                                  std::span<const NodeId> sources) {
  std::vector<int> dist(topo.node_capacity(), -1);
  // Flat FIFO (head index over a vector) and direct port-table iteration:
  // megafabric benches run this over thousands of nodes, where per-visit
  // neighbor vectors dominate the profile.
  std::vector<NodeId> queue;
  queue.reserve(topo.num_nodes());
  for (const NodeId s : sources) {
    if (dist[s] == -1) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId n = queue[head];
    const int next = dist[n] + 1;
    Port p = 0;
    for (const WireId w : topo.port_wires(n)) {
      const PortRef here{n, p++};
      if (w == kInvalidWire) {
        continue;
      }
      const NodeId far = topo.wire(w).opposite(here).node;
      if (dist[far] == -1) {
        dist[far] = next;
        queue.push_back(far);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<int> bfs_distances(const Topology& topo, NodeId from) {
  SANMAP_CHECK(topo.node_alive(from));
  return multi_source_bfs(topo, std::span<const NodeId>(&from, 1));
}

bool connected(const Topology& topo) {
  const auto live = topo.nodes();
  if (live.empty()) {
    return true;
  }
  const auto dist = bfs_distances(topo, live.front());
  return std::all_of(live.begin(), live.end(),
                     [&](NodeId n) { return dist[n] >= 0; });
}

int components(const Topology& topo, std::vector<int>& component_of) {
  component_of.assign(topo.node_capacity(), -1);
  int count = 0;
  for (const NodeId start : topo.nodes()) {
    if (component_of[start] != -1) {
      continue;
    }
    std::vector<NodeId> queue{start};
    component_of[start] = count;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId n = queue[head];
      Port p = 0;
      for (const WireId w : topo.port_wires(n)) {
        const PortRef here{n, p++};
        if (w == kInvalidWire) {
          continue;
        }
        const NodeId far = topo.wire(w).opposite(here).node;
        if (component_of[far] == -1) {
          component_of[far] = count;
          queue.push_back(far);
        }
      }
    }
    ++count;
  }
  return count;
}

int diameter(const Topology& topo) {
  SANMAP_CHECK_MSG(connected(topo), "diameter requires a connected topology");
  int best = 0;
  for (const NodeId n : topo.nodes()) {
    const auto dist = bfs_distances(topo, n);
    for (const NodeId m : topo.nodes()) {
      best = std::max(best, dist[m]);
    }
  }
  return best;
}

namespace {

/// Iterative Tarjan bridge finding on the multigraph. A wire is a bridge iff
/// low(child) > disc(parent) following that specific wire; parallel wires
/// and self-loops are handled because traversal is per-wire, not per-node.
class BridgeFinder {
 public:
  explicit BridgeFinder(const Topology& topo) : topo_(topo) {
    disc_.assign(topo.node_capacity(), -1);
    low_.assign(topo.node_capacity(), -1);
  }

  std::vector<WireId> run() {
    for (const NodeId n : topo_.nodes()) {
      if (disc_[n] == -1) {
        dfs(n);
      }
    }
    std::sort(result_.begin(), result_.end());
    return result_;
  }

 private:
  struct Frame {
    NodeId node;
    WireId via;  // wire used to enter `node`; kInvalidWire at roots
    Port next_port = 0;
  };

  void dfs(NodeId root) {
    std::vector<Frame> stack;
    disc_[root] = low_[root] = timer_++;
    stack.push_back(Frame{root, kInvalidWire, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId n = frame.node;
      if (frame.next_port < topo_.port_count(n)) {
        const Port p = frame.next_port++;
        const auto w = topo_.wire_at(n, p);
        if (!w || *w == frame.via) {
          continue;  // free port, or the single wire we came in on
        }
        const PortRef far = topo_.wire(*w).opposite(PortRef{n, p});
        if (far.node == n) {
          continue;  // self-loop never contributes to bridges
        }
        if (disc_[far.node] == -1) {
          disc_[far.node] = low_[far.node] = timer_++;
          stack.push_back(Frame{far.node, *w, 0});
        } else {
          low_[n] = std::min(low_[n], disc_[far.node]);
        }
      } else {
        const WireId via = frame.via;
        stack.pop_back();  // invalidates `frame`
        if (!stack.empty()) {
          Frame& parent = stack.back();
          low_[parent.node] = std::min(low_[parent.node], low_[n]);
          if (low_[n] > disc_[parent.node]) {
            result_.push_back(via);
          }
        }
      }
    }
  }

  const Topology& topo_;
  std::vector<int> disc_;
  std::vector<int> low_;
  std::vector<WireId> result_;
  int timer_ = 0;
};

}  // namespace

std::vector<WireId> bridges(const Topology& topo) {
  return BridgeFinder(topo).run();
}

std::vector<WireId> switch_bridges(const Topology& topo) {
  std::vector<WireId> out;
  for (const WireId w : bridges(topo)) {
    const Wire& wire = topo.wire(w);
    if (topo.is_switch(wire.a.node) && topo.is_switch(wire.b.node)) {
      out.push_back(w);
    }
  }
  return out;
}

std::vector<bool> separated_set(const Topology& topo) {
  std::vector<bool> in_f(topo.node_capacity(), false);
  const auto sbridges = switch_bridges(topo);
  for (const WireId sb : sbridges) {
    const Wire& wire = topo.wire(sb);
    // BFS from one end avoiding this wire; whichever side has no hosts is
    // separated from H by this switch-bridge.
    for (const PortRef side : {wire.a, wire.b}) {
      std::vector<bool> seen(topo.node_capacity(), false);
      std::vector<NodeId> reached{side.node};
      seen[side.node] = true;
      bool has_host = false;
      for (std::size_t head = 0; head < reached.size(); ++head) {
        const NodeId n = reached[head];
        if (topo.is_host(n)) {
          has_host = true;
        }
        Port p = 0;
        for (const WireId w : topo.port_wires(n)) {
          const PortRef here{n, p++};
          if (w == kInvalidWire || w == sb) {
            continue;
          }
          const NodeId far = topo.wire(w).opposite(here).node;
          if (!seen[far]) {
            seen[far] = true;
            reached.push_back(far);
          }
        }
      }
      if (!has_host) {
        for (const NodeId n : reached) {
          in_f[n] = true;
        }
      }
    }
  }
  return in_f;
}

Topology core(const Topology& topo) {
  Topology out = topo;
  const auto in_f = separated_set(topo);
  for (NodeId n = 0; n < in_f.size(); ++n) {
    if (in_f[n] && out.node_alive(n)) {
      out.remove_node(n);
    }
  }
  return out;
}

namespace {

/// Minimal successive-shortest-paths min-cost max-flow for the Q(v)
/// computation. Sizes here are tiny (hundreds of nodes), so Bellman-Ford per
/// augmentation is fine and avoids potential-maintenance subtleties.
class MinCostFlow {
 public:
  explicit MinCostFlow(std::size_t num_vertices)
      : head_(num_vertices, -1) {}

  void add_arc(std::size_t from, std::size_t to, int capacity, int cost) {
    arcs_.push_back(Arc{static_cast<int>(to), head_[from], capacity, cost});
    head_[from] = static_cast<int>(arcs_.size()) - 1;
    arcs_.push_back(Arc{static_cast<int>(from), head_[to], 0, -cost});
    head_[to] = static_cast<int>(arcs_.size()) - 1;
  }

  /// Sends up to `amount` units from s to t; returns {flow sent, total cost}.
  std::pair<int, int> run(std::size_t s, std::size_t t, int amount) {
    int flow = 0;
    int cost = 0;
    while (flow < amount) {
      // Bellman-Ford shortest path by cost in the residual graph.
      const int kInf = std::numeric_limits<int>::max() / 2;
      std::vector<int> dist(head_.size(), kInf);
      std::vector<int> parent_arc(head_.size(), -1);
      dist[s] = 0;
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t u = 0; u < head_.size(); ++u) {
          if (dist[u] == kInf) {
            continue;
          }
          for (int a = head_[u]; a != -1; a = arcs_[static_cast<std::size_t>(a)].next) {
            const Arc& arc = arcs_[static_cast<std::size_t>(a)];
            if (arc.capacity > 0 && dist[u] + arc.cost <
                                        dist[static_cast<std::size_t>(arc.to)]) {
              dist[static_cast<std::size_t>(arc.to)] = dist[u] + arc.cost;
              parent_arc[static_cast<std::size_t>(arc.to)] = a;
              changed = true;
            }
          }
        }
      }
      if (dist[t] == kInf) {
        break;  // no more augmenting paths
      }
      // Augment one unit (all capacities are small ints; unit steps keep the
      // code obviously correct).
      for (std::size_t u = t; u != s;) {
        const int a = parent_arc[u];
        arcs_[static_cast<std::size_t>(a)].capacity -= 1;
        arcs_[static_cast<std::size_t>(a) ^ 1].capacity += 1;
        u = static_cast<std::size_t>(arcs_[static_cast<std::size_t>(a) ^ 1].to);
      }
      flow += 1;
      cost += dist[t];
    }
    return {flow, cost};
  }

 private:
  struct Arc {
    int to;
    int next;
    int capacity;
    int cost;
  };

  std::vector<int> head_;
  std::vector<Arc> arcs_;
};

}  // namespace

std::optional<int> q_of(const Topology& topo, NodeId mapper_host, NodeId v) {
  SANMAP_CHECK(topo.node_alive(mapper_host) && topo.is_host(mapper_host));
  SANMAP_CHECK(topo.node_alive(v));

  // Vertices: topology nodes, then T ("any host" collector) and T* (sink).
  const std::size_t n = topo.node_capacity();
  const std::size_t t_any = n;
  const std::size_t t_star = n + 1;
  MinCostFlow mcf(n + 2);

  // Each wire becomes a pair of unit-capacity, unit-cost directed arcs. A
  // min-cost solution never uses both directions of one wire (removing such
  // a pair lowers cost), so this models "no repeated edge in either
  // direction". The mapper host's own wire gets capacity 2 toward the
  // mapper, implementing Definition 2's "the first and last may be the same"
  // allowance.
  for (const WireId w : topo.wires()) {
    const Wire& wire = topo.wire(w);
    const int cap_ab = (wire.b.node == mapper_host) ? 2 : 1;
    const int cap_ba = (wire.a.node == mapper_host) ? 2 : 1;
    mcf.add_arc(wire.a.node, wire.b.node, cap_ab, 1);
    mcf.add_arc(wire.b.node, wire.a.node, cap_ba, 1);
  }
  // One unit must return to the mapper host; one unit may end at any host.
  for (const NodeId h : topo.hosts()) {
    mcf.add_arc(h, t_any, 1, 0);
  }
  mcf.add_arc(t_any, t_star, 1, 0);
  mcf.add_arc(mapper_host, t_star, 1, 0);

  const auto [flow, cost] = mcf.run(v, t_star, 2);
  if (flow < 2) {
    return std::nullopt;
  }
  return cost;
}

int q_value(const Topology& topo, NodeId mapper_host) {
  SANMAP_CHECK_MSG(topo.num_hosts() >= 2 && topo.num_switches() >= 1,
                   "the paper assumes >=1 switch and >=2 hosts");
  int best = 0;
  for (const NodeId v : topo.nodes()) {
    if (const auto q = q_of(topo, mapper_host, v)) {
      best = std::max(best, *q);
    }
  }
  return best;
}

int search_depth(const Topology& topo, NodeId mapper_host) {
  return q_value(topo, mapper_host) + diameter(topo) + 1;
}

NodeId switch_farthest_from_hosts(const Topology& topo,
                                  const std::vector<NodeId>& ignore) {
  // One BFS from every counted host at once: a node's distance is then its
  // minimum over those hosts.
  std::vector<NodeId> sources;
  for (const NodeId h : topo.hosts()) {
    if (std::find(ignore.begin(), ignore.end(), h) == ignore.end()) {
      sources.push_back(h);
    }
  }
  const std::vector<int> min_dist = multi_source_bfs(topo, sources);
  NodeId best = kInvalidNode;
  int best_dist = -1;
  for (const NodeId s : topo.switches()) {
    if (min_dist[s] > best_dist) {
      best_dist = min_dist[s];
      best = s;
    }
  }
  SANMAP_CHECK_MSG(best != kInvalidNode,
                   "no switch is reachable from any (non-ignored) host");
  return best;
}

}  // namespace sanmap::topo
