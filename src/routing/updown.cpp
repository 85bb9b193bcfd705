#include "routing/updown.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::routing {

UpDownOrientation::UpDownOrientation(const topo::Topology& topo,
                                     const UpDownOptions& options)
    : topo_(&topo) {
  SANMAP_CHECK_MSG(topo.num_switches() >= 1,
                   "UP*/DOWN* needs at least one switch");
  SANMAP_CHECK_MSG(topo::connected(topo), "UP*/DOWN* needs a connected map");

  if (options.root.has_value()) {
    root_ = *options.root;
    SANMAP_CHECK(topo.node_alive(root_) && topo.is_switch(root_));
  } else {
    root_ = topo::switch_farthest_from_hosts(topo, options.ignore_hosts);
  }

  // Breadth-first labeling from the root.
  labels_.assign(topo.node_capacity(), -1);
  std::deque<topo::NodeId> queue{root_};
  labels_[root_] = 0;
  while (!queue.empty()) {
    const topo::NodeId n = queue.front();
    queue.pop_front();
    for (const topo::PortRef& nb : topo.neighbors(n)) {
      if (labels_[nb.node] == -1) {
        labels_[nb.node] = labels_[n] + 1;
        queue.push_back(nb.node);
      }
    }
  }

  if (!options.fix_dominant_switches) {
    return;
  }
  // A locally dominant switch is greater (in the (label, id) order) than
  // every neighbor: all its edges lead away and no route can use it.
  // Relabel it below its neighborhood; iterate, since lowering one switch
  // can expose another. The iteration provably terminates: each relabeling
  // strictly lowers one switch below all of its neighbors, and a bounded
  // safety counter guards the loop regardless.
  const auto switches = topo.switches();
  for (std::size_t round = 0;; ++round) {
    SANMAP_CHECK_MSG(round <= switches.size() * switches.size(),
                     "dominant-switch relabeling failed to converge");
    bool changed = false;
    for (const topo::NodeId s : switches) {
      if (s == root_ || topo.degree(s) == 0) {
        continue;
      }
      // Dominance is over ALL neighbors. A switch with hosts can never be
      // dominant (hosts always label above their switch) — and indeed its
      // own hosts can still enter and leave it legally; only a host-free
      // switch below all of its neighbors is unusable by every route.
      bool dominant = false;
      int min_neighbor = labels_[s];
      for (const topo::PortRef& nb : topo.neighbors(s)) {
        if (nb.node == s) {
          continue;  // self-loop cables do not constrain orientation
        }
        if (!less(nb.node, s)) {
          dominant = false;
          break;
        }
        dominant = true;
        min_neighbor = std::min(min_neighbor, labels_[nb.node]);
      }
      if (dominant) {
        labels_[s] = min_neighbor - 1;
        ++relabeled_;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
}

bool UpDownOrientation::less(topo::NodeId a, topo::NodeId b) const {
  if (labels_[a] != labels_[b]) {
    return labels_[a] < labels_[b];
  }
  return a < b;
}

bool UpDownOrientation::goes_up(topo::WireId wire,
                                topo::NodeId from) const {
  const topo::Wire& w = topo_->wire(wire);
  const topo::NodeId to = (w.a.node == from && w.b.node == from)
                              ? from  // self-loop: direction is moot
                              : w.opposite(from).node;
  if (to == from) {
    return false;  // self-loops are never "up"; routes should not use them
  }
  return less(to, from);
}

int UpDownOrientation::label(topo::NodeId node) const {
  SANMAP_CHECK(topo_->node_alive(node));
  return labels_[node];
}

}  // namespace sanmap::routing
