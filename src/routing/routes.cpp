#include "routing/routes.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/check.hpp"
#include "routing/all_pairs.hpp"

namespace sanmap::routing {

namespace {

constexpr int kInf = detail::kUnreachable;

using detail::AllPairs;

/// The cables from one node to one neighbour, in topo.wires() order.
struct Cables {
  std::size_t to;
  std::vector<topo::WireId> wires;
};

void add_cable(std::vector<Cables>& links, std::size_t to, topo::WireId w) {
  for (Cables& link : links) {
    if (link.to == to) {
      link.wires.push_back(w);
      return;
    }
  }
  links.push_back(Cables{to, {w}});
}

const std::vector<topo::WireId>& cables_between(
    const std::vector<std::vector<Cables>>& cables, std::size_t from,
    std::size_t to) {
  const auto& links = cables[from];
  const auto it =
      std::find_if(links.begin(), links.end(),
                   [&](const Cables& link) { return link.to == to; });
  SANMAP_CHECK_MSG(it != links.end(), "route hop between unlinked nodes");
  return it->wires;
}

/// The apexes k minimizing up(from, k) + down(k, to), ascending.
void best_apexes(const AllPairs& up, const AllPairs& down, std::size_t from,
                 std::size_t to, std::vector<std::size_t>& apexes) {
  apexes.clear();
  int best = kInf;
  for (std::size_t k = 0; k < up.n; ++k) {
    if (up.d(from, k) == kInf || down.d(k, to) == kInf) {
      continue;
    }
    const int total = up.d(from, k) + down.d(k, to);
    if (total < best) {
      best = total;
      apexes.clear();
    }
    if (total == best) {
      apexes.push_back(k);
    }
  }
}

}  // namespace

const HostRoute& RoutingResult::route(topo::NodeId src,
                                      topo::NodeId dst) const {
  const auto it = routes.find({src, dst});
  SANMAP_CHECK_MSG(it != routes.end(),
                   "no route from " << src << " to " << dst);
  return it->second;
}

std::vector<const HostRoute*> RoutingResult::table_for(
    topo::NodeId src) const {
  // The map is key-ordered, so src's routes are one contiguous range.
  std::vector<const HostRoute*> out;
  for (auto it = routes.lower_bound({src, topo::NodeId{0}});
       it != routes.end() && it->first.first == src; ++it) {
    out.push_back(&it->second);
  }
  return out;
}

double RoutingResult::mean_hops() const {
  if (routes.empty()) {
    return 0.0;
  }
  double total = 0;
  for (const auto& [key, value] : routes) {
    total += value.hops();
  }
  return total / static_cast<double>(routes.size());
}

int RoutingResult::max_hops() const {
  int best = 0;
  for (const auto& [key, value] : routes) {
    best = std::max(best, value.hops());
  }
  return best;
}

RoutingResult compute_updown_routes(const topo::Topology& topo,
                                    const UpDownOptions& options,
                                    std::uint64_t seed) {
  RoutingResult result{UpDownOrientation(topo, options), {}, {}};
  const UpDownOrientation& orientation = result.orientation;
  common::Rng rng(seed);

  // Compact node indexing over live nodes.
  const auto nodes = topo.nodes();
  const std::size_t n = nodes.size();
  std::vector<std::size_t> index_of(topo.node_capacity(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    index_of[nodes[i]] = i;
  }

  // Up/down adjacency, and per node the cables to each neighbour (in
  // topo.wires() order) for load-balanced emission. Self-loop cables are
  // excluded: no valid route uses them.
  std::vector<std::vector<std::size_t>> up_adj(n);
  std::vector<std::vector<std::size_t>> down_adj(n);
  std::vector<std::vector<Cables>> cables(n);
  for (const topo::WireId w : topo.wires()) {
    const topo::Wire& wire = topo.wire(w);
    if (wire.a.node == wire.b.node) {
      continue;
    }
    const std::size_t ia = index_of[wire.a.node];
    const std::size_t ib = index_of[wire.b.node];
    add_cable(cables[ia], ib, w);
    add_cable(cables[ib], ia, w);
    if (orientation.goes_up(w, wire.a.node)) {
      up_adj[ia].push_back(ib);
      down_adj[ib].push_back(ia);
    } else {
      up_adj[ib].push_back(ia);
      down_adj[ia].push_back(ib);
    }
  }

  AllPairs up;
  up.compute(n, up_adj);
  AllPairs down;
  down.compute(n, down_adj);

  // A host has one port and labels above its switch, so its one link goes
  // up and nothing goes up into it. Its up distances are its switch's plus
  // one, its down distance from any apex is its switch's plus one, and it
  // is never an apex itself: the apexes tied for a host pair are exactly
  // those tied for its two switches, so the search runs per switch pair.
  static_assert(topo::kHostPorts == 1,
                "the per-switch-pair apex search needs single-port hosts");
  const auto hosts = topo.hosts();
  std::vector<std::size_t> switch_of(n, n);
  for (const topo::NodeId h : hosts) {
    const std::size_t hi = index_of[h];
    SANMAP_CHECK_MSG(up_adj[hi].size() == 1 && down_adj[hi].empty(),
                     "host " << topo.name(h)
                             << " is not linked up to exactly one switch");
    switch_of[hi] = up_adj[hi].front();
  }

  // Apex tie lists for the current source switch, by destination switch.
  std::vector<std::vector<std::size_t>> ties(n);
  std::vector<std::size_t> ties_from(n, n);
  std::vector<std::size_t> sequence;
  for (const topo::NodeId src : hosts) {
    const std::size_t si = index_of[src];
    const std::size_t from = switch_of[si];
    for (const topo::NodeId dst : hosts) {
      if (src == dst) {
        continue;
      }
      const std::size_t di = index_of[dst];
      const std::size_t to = switch_of[di];
      std::vector<std::size_t>& apexes = ties[to];
      if (ties_from[to] != from) {
        ties_from[to] = from;
        best_apexes(up, down, from, to, apexes);
      }
      SANMAP_CHECK_MSG(!apexes.empty(), "no UP*/DOWN* route between hosts "
                                            << topo.name(src) << " and "
                                            << topo.name(dst));
      // §5.5's load-balance freedom, applied to equal-cost apexes as well
      // as parallel cables: spread traffic over the tied alternatives.
      const std::size_t apex = rng.pick(apexes);
      // Node sequence: src ... apex (up moves) ... dst (down moves).
      sequence.assign(1, si);
      up.expand(si, apex, sequence);
      down.expand(apex, di, sequence);

      // Hosts ascend, so every key lands at the end of the map.
      HostRoute& route =
          result.routes
              .emplace_hint(result.routes.end(), std::piecewise_construct,
                            std::forward_as_tuple(src, dst),
                            std::forward_as_tuple())
              ->second;
      route.nodes.reserve(sequence.size());
      for (const std::size_t i : sequence) {
        route.nodes.push_back(nodes[i]);
      }
      // Pick a wire per hop (uniformly among parallel cables of that hop's
      // direction — both directions share the cable set).
      route.wires.reserve(sequence.size() - 1);
      for (std::size_t h = 0; h + 1 < sequence.size(); ++h) {
        route.wires.push_back(
            rng.pick(cables_between(cables, sequence[h], sequence[h + 1])));
      }
      recompute_turns(topo, route);
    }
  }
  return result;
}

void recompute_turns(const topo::Topology& topo, HostRoute& route) {
  // At each intermediate switch, the turn is the exit port minus the entry
  // port (§2.2 relative addressing).
  route.turns.clear();
  route.turns.reserve(route.wires.empty() ? 0 : route.wires.size() - 1);
  for (std::size_t h = 1; h < route.wires.size(); ++h) {
    const topo::NodeId at = route.nodes[h];
    const topo::Wire& in_wire = topo.wire(route.wires[h - 1]);
    const topo::Wire& out_wire = topo.wire(route.wires[h]);
    const topo::Port in_port = in_wire.opposite(route.nodes[h - 1]).port;
    topo::Port out_port;
    if (out_wire.a.node == at) {
      out_port = out_wire.a.port;
    } else {
      out_port = out_wire.b.port;
    }
    route.turns.push_back(out_port - in_port);
  }
}

}  // namespace sanmap::routing
