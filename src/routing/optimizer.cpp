#include "routing/optimizer.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "routing/all_pairs.hpp"
#include "routing/deadlock.hpp"

namespace sanmap::routing {

namespace {

std::size_t channel_slot(topo::WireId w, bool a_to_b) {
  return static_cast<std::size_t>(w) * 2 + (a_to_b ? 1 : 0);
}

std::vector<std::size_t> channel_loads_of(const topo::Topology& topo,
                                          const RoutingResult& routes) {
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);
  for (const auto& [key, route] : routes.routes) {
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      ++load[channel_slot(route.wires[i], a_to_b)];
    }
  }
  return load;
}

std::size_t max_load(const std::vector<std::size_t>& load) {
  std::size_t best = 0;
  for (const std::size_t n : load) {
    best = std::max(best, n);
  }
  return best;
}

/// Shared precomputation for the path pass: compact index, up/down
/// all-pairs tables, and the parallel-cable index, all derived from the
/// table's own orientation.
struct PathSearch {
  std::vector<topo::NodeId> nodes;
  std::vector<std::size_t> index_of;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<topo::WireId>>
      wires_between;
  detail::AllPairs up;
  detail::AllPairs down;

  PathSearch(const topo::Topology& topo, const UpDownOrientation& orientation)
      : nodes(topo.nodes()), index_of(topo.node_capacity(), 0) {
    const std::size_t n = nodes.size();
    for (std::size_t i = 0; i < n; ++i) {
      index_of[nodes[i]] = i;
    }
    std::vector<std::vector<std::size_t>> up_adj(n);
    std::vector<std::vector<std::size_t>> down_adj(n);
    for (const topo::WireId w : topo.wires()) {
      const topo::Wire& wire = topo.wire(w);
      if (wire.a.node == wire.b.node) {
        continue;
      }
      const std::size_t ia = index_of[wire.a.node];
      const std::size_t ib = index_of[wire.b.node];
      wires_between[{std::min(ia, ib), std::max(ia, ib)}].push_back(w);
      if (orientation.goes_up(w, wire.a.node)) {
        up_adj[ia].push_back(ib);
        down_adj[ib].push_back(ia);
      } else {
        up_adj[ib].push_back(ia);
        down_adj[ia].push_back(ib);
      }
    }
    up.compute(n, up_adj);
    down.compute(n, down_adj);
  }
};

/// Re-selects each route among its tied shortest alternatives, toward the
/// assignment minimizing (max resulting channel load, total load). Returns
/// the number of routes moved.
std::size_t path_pass(const topo::Topology& topo, RoutingResult& routes,
                      const PathSearch& search,
                      std::vector<std::size_t>& load) {
  std::size_t moves = 0;
  std::vector<std::size_t> apexes;
  std::vector<std::size_t> sequence;
  std::vector<topo::WireId> chosen;
  std::vector<std::size_t> best_sequence;
  std::vector<topo::WireId> best_wires;
  for (auto& [key, route] : routes.routes) {
    // Evaluate with this route's own traffic removed.
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      --load[channel_slot(route.wires[i], a_to_b)];
    }
    const std::size_t si = search.index_of[key.first];
    const std::size_t di = search.index_of[key.second];
    int best = detail::kUnreachable;
    apexes.clear();
    const std::size_t n = search.nodes.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (search.up.d(si, k) == detail::kUnreachable ||
          search.down.d(k, di) == detail::kUnreachable) {
        continue;
      }
      const int total = search.up.d(si, k) + search.down.d(k, di);
      if (total < best) {
        best = total;
        apexes.clear();
      }
      if (total == best) {
        apexes.push_back(k);
      }
    }

    // Cost of the current assignment, in the same units the candidates are
    // scored in: (max load after re-adding the route, total load crossed).
    std::size_t cur_max = 0;
    std::size_t cur_sum = 0;
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      const std::size_t have = load[channel_slot(route.wires[i], a_to_b)];
      cur_max = std::max(cur_max, have + 1);
      cur_sum += have;
    }

    std::size_t best_max = cur_max;
    std::size_t best_sum = cur_sum;
    bool adopt = false;
    if (best == route.hops()) {  // only same-cost alternatives
      for (const std::size_t k : apexes) {
        sequence.assign(1, si);
        search.up.expand(si, k, sequence);
        search.down.expand(k, di, sequence);
        chosen.clear();
        std::size_t cand_max = 0;
        std::size_t cand_sum = 0;
        for (std::size_t h = 0; h + 1 < sequence.size(); ++h) {
          const auto wkey = std::make_pair(
              std::min(sequence[h], sequence[h + 1]),
              std::max(sequence[h], sequence[h + 1]));
          const auto& candidates = search.wires_between.at(wkey);
          const topo::NodeId from = search.nodes[sequence[h]];
          topo::WireId pick = candidates.front();
          std::size_t pick_load = std::numeric_limits<std::size_t>::max();
          for (const topo::WireId w : candidates) {
            const bool a_to_b = topo.wire(w).a.node == from;
            const std::size_t have = load[channel_slot(w, a_to_b)];
            if (have < pick_load) {
              pick_load = have;
              pick = w;
            }
          }
          chosen.push_back(pick);
          cand_max = std::max(cand_max, pick_load + 1);
          cand_sum += pick_load;
        }
        if (cand_max < best_max ||
            (cand_max == best_max && cand_sum < best_sum)) {
          best_max = cand_max;
          best_sum = cand_sum;
          best_sequence = sequence;
          best_wires = chosen;
          adopt = true;
        }
      }
    }

    if (adopt) {
      route.nodes.clear();
      route.nodes.reserve(best_sequence.size());
      for (const std::size_t i : best_sequence) {
        route.nodes.push_back(search.nodes[i]);
      }
      route.wires = best_wires;
      recompute_turns(topo, route);
      ++moves;
    }
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      ++load[channel_slot(route.wires[i], a_to_b)];
    }
  }
  return moves;
}

/// Re-deals the hops crossing every parallel trunk so per-cable totals
/// (both directions jointly) are within one of each other. Returns hops
/// actually moved to a different cable.
std::size_t cable_pass(const topo::Topology& topo, RoutingResult& routes,
                       const PathSearch& search,
                       std::vector<std::size_t>& load) {
  std::size_t moves = 0;
  std::map<topo::WireId, std::size_t> joint;
  for (const auto& [wkey, group] : search.wires_between) {
    if (group.size() < 2) {
      continue;
    }
    const topo::NodeId a = search.nodes[wkey.first];
    const topo::NodeId b = search.nodes[wkey.second];
    if (!topo.is_switch(a) || !topo.is_switch(b)) {
      continue;
    }
    joint.clear();
    for (const topo::WireId w : group) {
      joint[w] = 0;
    }
    // Deterministic hop order: routes in key order, hops in path order.
    for (auto& [key, route] : routes.routes) {
      for (std::size_t h = 0; h + 1 < route.nodes.size(); ++h) {
        const topo::NodeId from = route.nodes[h];
        const topo::NodeId to = route.nodes[h + 1];
        if ((from != a || to != b) && (from != b || to != a)) {
          continue;
        }
        topo::WireId pick = group.front();
        std::size_t pick_count = std::numeric_limits<std::size_t>::max();
        for (const topo::WireId w : group) {
          if (joint[w] < pick_count) {
            pick_count = joint[w];
            pick = w;
          }
        }
        ++joint[pick];
        if (route.wires[h] != pick) {
          const bool was_a_to_b = topo.wire(route.wires[h]).a.node == from;
          --load[channel_slot(route.wires[h], was_a_to_b)];
          const bool now_a_to_b = topo.wire(pick).a.node == from;
          ++load[channel_slot(pick, now_a_to_b)];
          route.wires[h] = pick;
          recompute_turns(topo, route);
          ++moves;
        }
      }
    }
  }
  return moves;
}

/// The per-round safety re-proof: orientation legality for every route
/// (no down-to-up turn), plus the three-color DFS acyclicity check over the
/// channel-dependency graph.
bool table_proven_safe(const topo::Topology& topo,
                       const RoutingResult& routes) {
  return updown_compliant(routes) &&
         analyze_routes(topo, routes).deadlock_free;
}

}  // namespace

OptimizerReport optimize_routes(const topo::Topology& topo,
                                RoutingResult& routes,
                                const OptimizerOptions& options) {
  SANMAP_CHECK(options.max_rounds >= 1);
  OptimizerReport report;
  const PathSearch search(topo, routes.orientation);
  std::vector<std::size_t> load = channel_loads_of(topo, routes);
  report.max_load_before = max_load(load);

  for (int round = 0; round < options.max_rounds; ++round) {
    const auto saved = routes.routes;
    const std::size_t path_moves = path_pass(topo, routes, search, load);
    const std::size_t cable_moves = cable_pass(topo, routes, search, load);
    if (!table_proven_safe(topo, routes)) {
      routes.routes = saved;
      load = channel_loads_of(topo, routes);
      report.reverted = true;
      break;
    }
    ++report.rounds;
    report.path_moves += path_moves;
    report.cable_moves += cable_moves;
    if (path_moves == 0 && cable_moves == 0) {
      break;  // settled
    }
  }

  report.max_load_after = max_load(load);
  routes.meta.optimized = true;
  // Declare the final parallel-cable assignment: SL403 audits against this
  // instead of re-deriving expectations.
  routes.meta.cable_plan.clear();
  for (const auto& [wkey, group] : search.wires_between) {
    if (group.size() < 2) {
      continue;
    }
    const topo::NodeId a = search.nodes[wkey.first];
    const topo::NodeId b = search.nodes[wkey.second];
    if (!topo.is_switch(a) || !topo.is_switch(b)) {
      continue;
    }
    for (const topo::WireId w : group) {
      routes.meta.cable_plan[{w, false}] = load[channel_slot(w, false)];
      routes.meta.cable_plan[{w, true}] = load[channel_slot(w, true)];
    }
  }
  return report;
}

}  // namespace sanmap::routing
