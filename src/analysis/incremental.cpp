#include "analysis/incremental.hpp"

#include <algorithm>
#include <deque>

#include "analysis/lints.hpp"
#include "common/check.hpp"

namespace sanmap::analysis {
namespace {

/// Rank spacing for the maintained topological order: fresh participants
/// append at max+kRankGap, Pearce-Kelly repairs reuse existing slots, so
/// the key space never exhausts in practice (2^44 appends).
constexpr std::uint64_t kRankGap = std::uint64_t{1} << 20;

/// Escalate when dirty wires+nodes exceed this fraction of the live fabric
/// (but never below kMinDirty entities — small fabrics always qualify for
/// the fast path).
constexpr double kDirtyFraction = 0.125;
constexpr std::size_t kMinDirty = 64;
/// Escalate when changed+removed routes exceed this fraction of the table
/// (snapshot compaction shifts every id past a removal; a diff that large is
/// cheaper to re-analyze than to localize).
constexpr double kRouteFraction = 0.5;
/// Pearce-Kelly affected-region cap; past it the order is rebuilt.
constexpr std::size_t kRepairWindow = 256;

std::size_t channel_id(const routing::Channel& c) {
  return static_cast<std::size_t>(c.wire) * 2 +
         static_cast<std::size_t>(c.a_to_b);
}

routing::Channel channel_from_id(std::size_t id) {
  return routing::Channel{static_cast<topo::WireId>(id / 2), (id % 2) != 0};
}

/// The channel-id sequence a route holds — the same derivation as
/// routing::route_channel_paths, by dense id. Every wire of the route must
/// be alive (callers run the structure lints first).
std::vector<std::size_t> channel_id_path(const topo::Topology& map,
                                         const routing::HostRoute& route) {
  std::vector<std::size_t> path;
  path.reserve(route.wires.size());
  for (std::size_t i = 0; i < route.wires.size(); ++i) {
    const topo::Wire& wire = map.wire(route.wires[i]);
    path.push_back(channel_id(
        routing::Channel{route.wires[i], wire.a.node == route.nodes[i]}));
  }
  return path;
}

/// Value equality for routes. turns is derived from (nodes, wires) — a wire
/// fixes the entry/exit ports — so comparing the two id sequences is
/// complete.
bool same_route(const routing::HostRoute& a, const routing::HostRoute& b) {
  return a.nodes == b.nodes && a.wires == b.wires;
}

/// Ordered diff of two route tables: keys inserted or value-changed land in
/// `changed`, vanished keys in `removed`, both ascending. Builder and
/// checker run this on their own mirrors, so a builder that lies about the
/// diff is caught by comparison.
void diff_routes(const std::map<RouteKey, routing::HostRoute>& base,
                 const std::map<RouteKey, routing::HostRoute>& now,
                 std::vector<RouteKey>& changed,
                 std::vector<RouteKey>& removed) {
  auto a = base.begin();
  auto b = now.begin();
  while (a != base.end() || b != now.end()) {
    if (a == base.end() || (b != now.end() && b->first < a->first)) {
      changed.push_back(b->first);
      ++b;
    } else if (b == now.end() || a->first < b->first) {
      removed.push_back(a->first);
      ++a;
    } else {
      if (!same_route(a->second, b->second)) {
        changed.push_back(a->first);
      }
      ++a;
      ++b;
    }
  }
}

/// legality_labels() on top of maintained root distances: replays
/// UpDownOrientation's dominant-switch fixpoint (routing/updown.cpp) on the
/// same base labels, port-order for port-order, so the output is
/// byte-identical — without the per-epoch orientation rebuild (an O(m)
/// connectivity check, a fresh BFS, and allocation-heavy neighbors() calls).
std::vector<int> labels_from_distances(const topo::Topology& map,
                                       topo::NodeId root,
                                       const std::vector<int>& dist) {
  std::vector<int> labels(map.node_capacity(), 0);
  for (topo::NodeId n = 0; n < map.node_capacity(); ++n) {
    if (!map.node_alive(n)) {
      continue;
    }
    if (n >= dist.size() || dist[n] < 0) {
      // Some live node is unreachable from the root: the map is
      // disconnected. Reproduce the from-scratch path exactly — including
      // its connectivity check — instead of inventing labels analyze()
      // would never produce.
      return legality_labels(map, root);
    }
    labels[n] = dist[n];
  }
  const auto less = [&labels](topo::NodeId a, topo::NodeId b) {
    if (labels[a] != labels[b]) {
      return labels[a] < labels[b];
    }
    return a < b;
  };
  const auto switches = map.switches();
  for (std::size_t round = 0;; ++round) {
    SANMAP_CHECK_MSG(round <= switches.size() * switches.size(),
                     "dominant-switch relabeling failed to converge");
    bool changed = false;
    for (const topo::NodeId s : switches) {
      if (s == root || map.degree(s) == 0) {
        continue;
      }
      bool dominant = false;
      int min_neighbor = labels[s];
      topo::Port p = 0;
      for (const topo::WireId w : map.port_wires(s)) {
        const topo::PortRef here{s, p++};
        if (w == topo::kInvalidWire) {
          continue;
        }
        const topo::NodeId far = map.wire(w).opposite(here).node;
        if (far == s) {
          continue;  // self-loop cables do not constrain orientation
        }
        if (!less(far, s)) {
          dominant = false;
          break;
        }
        dominant = true;
        min_neighbor = std::min(min_neighbor, labels[far]);
      }
      if (dominant) {
        labels[s] = min_neighbor - 1;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
  return labels;
}

using EdgePair = std::pair<std::size_t, std::size_t>;

struct EdgeTransitions {
  /// Structural (refcount 0↔1) changes, ascending.
  std::vector<EdgePair> inserted;
  std::vector<EdgePair> removed;
};

/// Applies the route diff to a refcounted dependency multiset and reports
/// the structural transitions. `chan_path` is updated in place (old paths
/// must be read from it — dead wires cannot be dereferenced through the new
/// map). Shared derivation, independent state: the builder and the checker
/// each run it on their own multiset and compare results.
EdgeTransitions apply_route_edge_deltas(
    const topo::Topology& map,
    const std::map<RouteKey, routing::HostRoute>& new_routes,
    const std::vector<RouteKey>& changed, const std::vector<RouteKey>& removed,
    std::map<RouteKey, std::vector<std::size_t>>& chan_path,
    std::map<EdgePair, long>& edge_ref) {
  std::map<EdgePair, long> before;
  const auto touch = [&](const EdgePair& e) {
    const auto it = edge_ref.find(e);
    before.try_emplace(e, it == edge_ref.end() ? 0 : it->second);
  };
  const auto dec_path = [&](const std::vector<std::size_t>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgePair e{path[i], path[i + 1]};
      touch(e);
      --edge_ref[e];
    }
  };
  const auto inc_path = [&](const std::vector<std::size_t>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const EdgePair e{path[i], path[i + 1]};
      touch(e);
      ++edge_ref[e];
    }
  };

  for (const RouteKey& key : removed) {
    const auto it = chan_path.find(key);
    SANMAP_CHECK_MSG(it != chan_path.end(), "removed route has no cached path");
    dec_path(it->second);
    chan_path.erase(it);
  }
  for (const RouteKey& key : changed) {
    if (const auto it = chan_path.find(key); it != chan_path.end()) {
      dec_path(it->second);
    }
    auto path = channel_id_path(map, new_routes.at(key));
    inc_path(path);
    chan_path[key] = std::move(path);
  }

  EdgeTransitions out;
  for (const auto& [e, was] : before) {
    const auto it = edge_ref.find(e);
    const long now = it == edge_ref.end() ? 0 : it->second;
    SANMAP_CHECK_MSG(now >= 0, "dependency refcount went negative");
    if (was > 0 && now == 0) {
      out.removed.push_back(e);
      edge_ref.erase(e);
    } else if (was == 0 && now > 0) {
      out.inserted.push_back(e);
    } else if (now == 0 && it != edge_ref.end()) {
      edge_ref.erase(it);  // touched but net-zero: keep the multiset sparse
    }
  }
  return out;
}

std::vector<EdgePair> to_id_pairs(
    const std::vector<std::pair<routing::Channel, routing::Channel>>& edges) {
  std::vector<EdgePair> ids;
  ids.reserve(edges.size());
  for (const auto& [from, to] : edges) {
    ids.emplace_back(channel_id(from), channel_id(to));
  }
  return ids;
}

void explain(std::vector<std::string>* why, const std::string& line) {
  if (why != nullptr) {
    why->push_back(line);
  }
}

}  // namespace

const char* to_string(EscalationReason reason) {
  switch (reason) {
    case EscalationReason::kNone:
      return "none";
    case EscalationReason::kFirstRun:
      return "first-run";
    case EscalationReason::kManualReset:
      return "manual-reset";
    case EscalationReason::kRootChanged:
      return "root-changed";
    case EscalationReason::kDiffTooLarge:
      return "diff-too-large";
    case EscalationReason::kStructureFinding:
      return "structure-finding";
    case EscalationReason::kCycle:
      return "cycle";
    case EscalationReason::kCheckerRejected:
      return "checker-rejected";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// AnalysisState

AnalysisState::AnalysisState(AnalysisStateOptions options)
    : options_(std::move(options)) {}

void AnalysisState::clear_baseline() {
  primed_ = false;
  root_ = topo::kInvalidNode;
  node_fp_.clear();
  wire_fp_.clear();
  degree_.clear();
  isolated_.clear();
  components_ = 0;
  routes_.clear();
  node_routes_.clear();
  wire_routes_.clear();
  labels_.clear();
  legal_.clear();
  illegal_ = 0;
  chan_path_.clear();
  edge_ref_.clear();
  out_.clear();
  in_.clear();
  dependencies_ = 0;
  rank_of_.clear();
  chan_at_rank_.clear();
  bfs_.clear();
  root_bfs_.reset();
  parallel_.clear();
  loads_.clear();
}

void AnalysisState::index_route(const RouteKey& key,
                                const routing::HostRoute& route) {
  for (const topo::NodeId n : route.nodes) {
    node_routes_[n].insert(key);
  }
  for (const topo::WireId w : route.wires) {
    wire_routes_[w].insert(key);
  }
}

void AnalysisState::unindex_route(const RouteKey& key,
                                  const routing::HostRoute& route) {
  const auto drop = [&](auto& index, auto id) {
    const auto it = index.find(id);
    if (it != index.end()) {
      it->second.erase(key);
      if (it->second.empty()) {
        index.erase(it);
      }
    }
  };
  for (const topo::NodeId n : route.nodes) {
    drop(node_routes_, n);
  }
  for (const topo::WireId w : route.wires) {
    drop(wire_routes_, w);
  }
}

void AnalysisState::prime(const topo::Topology& map,
                          const routing::RoutingResult& routes,
                          const AnalysisResult& full) {
  clear_baseline();
  // A baseline is only usable when the full pass proved everything the fast
  // path maintains: sound table, certificates built, graph acyclic. (A
  // cyclic or broken epoch keeps escalating until the fabric heals.)
  if (!full.analyzed_routes || !options_.analyzer.certificates ||
      !full.deadlock.deadlock_free) {
    return;
  }
  root_ = routes.orientation.root();

  node_fp_.resize(map.node_capacity());
  for (topo::NodeId n = 0; n < map.node_capacity(); ++n) {
    const bool alive = map.node_alive(n);
    node_fp_[n] = NodeFp{alive, alive && map.is_host(n)};
  }
  wire_fp_.resize(map.wire_capacity());
  degree_.assign(map.node_capacity(), 0);
  for (topo::WireId w = 0; w < map.wire_capacity(); ++w) {
    if (!map.wire_alive(w)) {
      wire_fp_[w] = WireFp{};
      continue;
    }
    const topo::Wire& wire = map.wire(w);
    wire_fp_[w] = WireFp{true, wire.a.node, wire.b.node};
    ++degree_[wire.a.node];
    ++degree_[wire.b.node];
  }
  for (topo::NodeId n = 0; n < map.node_capacity(); ++n) {
    if (node_fp_[n].alive && degree_[n] == 0) {
      isolated_.insert(n);
    }
  }
  {
    std::vector<int> scratch;
    components_ = topo::components(map, scratch);
  }

  routes_ = routes.routes;
  for (const auto& [key, route] : routes_) {
    index_route(key, route);
  }

  labels_ = full.legality.labels;
  // build_legality_certificate walks routes.routes in key order, so the
  // cert entries zip 1:1 with the route map.
  SANMAP_CHECK(full.legality.routes.size() == routes_.size());
  std::size_t i = 0;
  for (const auto& [key, route] : routes_) {
    const RouteLegality& entry = full.legality.routes[i++];
    legal_.emplace(key, entry);
    illegal_ += entry.legal ? 0u : 1u;
  }

  for (const auto& [key, route] : routes_) {
    auto path = channel_id_path(map, route);
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      ++edge_ref_[{path[j], path[j + 1]}];
    }
    chan_path_.emplace(key, std::move(path));
  }
  for (const auto& [e, count] : edge_ref_) {
    out_[e.first].insert(e.second);
    in_[e.second].insert(e.first);
    ++dependencies_;
  }
  // Seed the maintained order from the full certificate's Kahn order (just
  // proved by analyze()'s self-check).
  std::uint64_t rank = kRankGap;
  for (const routing::Channel& c : full.deadlock.topological_order) {
    const std::size_t id = channel_id(c);
    rank_of_.emplace(id, rank);
    chan_at_rank_.emplace(rank, id);
    rank += kRankGap;
  }

  if (options_.analyzer.route_lints) {
    for (const auto& [key, route] : routes_) {
      if (!bfs_.contains(key.first)) {
        bfs_.emplace(key.first, topo::DynamicBfs(map, key.first));
      }
    }
    parallel_ = parallel_cable_groups(map);
    loads_ = channel_loads(map, routes);
  }
  root_bfs_.emplace(map, root_);
  primed_ = true;
}

AnalysisState::Result AnalysisState::full_path(
    const topo::Topology& map, const routing::RoutingResult& routes,
    EscalationReason reason) {
  Result r;
  r.delta.base_revision = revision_;
  r.delta.escalated_full = true;
  r.delta.reason = reason;
  ++stats_.escalated_full;
  r.analysis = analyze(map, routes, options_.analyzer);
  prime(map, routes, r.analysis);
  ++revision_;
  r.delta.revision = revision_;
  return r;
}

AnalysisState::Result AnalysisState::reset(const topo::Topology& map,
                                           const routing::RoutingResult& routes,
                                           EscalationReason reason) {
  return full_path(map, routes,
                   primed_ ? reason : EscalationReason::kFirstRun);
}

AnalysisState::Result AnalysisState::reanalyze(
    const topo::Topology& map, const routing::RoutingResult& routes) {
  ++stats_.reanalyses;
  if (!primed_) {
    return full_path(map, routes, EscalationReason::kFirstRun);
  }
  const topo::NodeId root = routes.orientation.root();
  if (root != root_ || root >= map.node_capacity() || !map.node_alive(root) ||
      !map.is_switch(root)) {
    // Covers both a re-rooted table and a dead root; the full path owns the
    // SL106 diagnostic for the latter.
    return full_path(map, routes, EscalationReason::kRootChanged);
  }
  if (map.node_capacity() < node_fp_.size() ||
      map.wire_capacity() < wire_fp_.size()) {
    // Id spaces only shrink across a compaction — every id moved.
    return full_path(map, routes, EscalationReason::kDiffTooLarge);
  }

  CertificateDelta delta;
  delta.base_revision = revision_;

  // ---- value diff: map side ----------------------------------------------
  const std::size_t ncap = map.node_capacity();
  const std::size_t wcap = map.wire_capacity();
  // The diff is by id, so it holds only while every id alive on both sides
  // still names the same device: same node kind, same wire endpoints. Two
  // independently compacted maps (a remap that lost part of the fabric and
  // found it again) can renumber without shrinking; a liveness-only diff
  // would then repair the root BFS — hence the labels — and the per-source
  // BFS caches against edges that no longer exist. Every id moved: escalate.
  for (topo::NodeId n = 0; n < ncap; ++n) {
    const bool was = n < node_fp_.size() && node_fp_[n].alive;
    const bool now = map.node_alive(n);
    if (now != was) {
      delta.dirty_nodes.push_back(n);
    } else if (now && node_fp_[n].host != map.is_host(n)) {
      return full_path(map, routes, EscalationReason::kDiffTooLarge);
    }
  }
  std::vector<topo::DynamicBfs::Edge> removed_e;
  std::vector<topo::DynamicBfs::Edge> added_e;
  for (topo::WireId w = 0; w < wcap; ++w) {
    const bool was = w < wire_fp_.size() && wire_fp_[w].alive;
    const bool now = map.wire_alive(w);
    if (was && now) {
      const topo::Wire& wire = map.wire(w);
      if (wire.a.node != wire_fp_[w].a || wire.b.node != wire_fp_[w].b) {
        return full_path(map, routes, EscalationReason::kDiffTooLarge);
      }
    }
    if (was == now) {
      continue;
    }
    delta.dirty_wires.push_back(w);
    if (was) {
      removed_e.push_back({wire_fp_[w].a, wire_fp_[w].b});
    } else {
      const topo::Wire& wire = map.wire(w);
      added_e.push_back({wire.a.node, wire.b.node});
    }
  }

  // ---- value diff: route side --------------------------------------------
  diff_routes(routes_, routes.routes, delta.changed_routes,
              delta.removed_routes);

  // ---- escalation thresholds ---------------------------------------------
  const std::size_t live = map.num_nodes() + map.num_wires();
  const std::size_t dirty = delta.dirty_nodes.size() + delta.dirty_wires.size();
  const auto dirty_cap = std::max(
      kMinDirty,
      static_cast<std::size_t>(kDirtyFraction *
                               static_cast<double>(live)));
  const std::size_t churn =
      delta.changed_routes.size() + delta.removed_routes.size();
  const auto churn_cap = static_cast<std::size_t>(
      kRouteFraction *
      static_cast<double>(std::max<std::size_t>(routes.routes.size(), 1)));
  if (dirty > dirty_cap || churn > churn_cap) {
    return full_path(map, routes, EscalationReason::kDiffTooLarge);
  }

  // ---- structure lints over the dirty closure ----------------------------
  std::set<RouteKey> struct_affected(delta.changed_routes.begin(),
                                     delta.changed_routes.end());
  for (const topo::NodeId n : delta.dirty_nodes) {
    if (const auto it = node_routes_.find(n); it != node_routes_.end()) {
      struct_affected.insert(it->second.begin(), it->second.end());
    }
  }
  for (const topo::WireId w : delta.dirty_wires) {
    if (const auto it = wire_routes_.find(w); it != wire_routes_.end()) {
      struct_affected.insert(it->second.begin(), it->second.end());
    }
  }
  for (const RouteKey& key : delta.removed_routes) {
    struct_affected.erase(key);
  }
  {
    DiagnosticReport scratch;
    scratch.set_cap(options_.analyzer.diagnostics_cap);
    bool sound = true;
    for (const RouteKey& key : struct_affected) {
      sound = lint_route_structure_one(map, key, routes.routes.at(key),
                                       scratch) &&
              sound;
    }
    if (!sound || scratch.total() != 0) {
      // Any structure finding (all SL1xx structure codes are errors, but
      // total() guards the invariant) means the full path's SL001 skip and
      // per-route diagnostics apply — localizing them is not worth it.
      return full_path(map, routes, EscalationReason::kStructureFinding);
    }
  }

  // ---- legality: repair labels, reclassify the label closure -------------
  if (!removed_e.empty() || !added_e.empty()) {
    root_bfs_->apply(map, removed_e, added_e);
  }
  std::vector<int> new_labels =
      labels_from_distances(map, root_, root_bfs_->distances());
  for (topo::NodeId n = 0; n < new_labels.size(); ++n) {
    const int old = n < labels_.size() ? labels_[n] : 0;
    if (new_labels[n] != old) {
      delta.label_updates.emplace_back(n, new_labels[n]);
    }
  }
  std::set<RouteKey> legal_affected(delta.changed_routes.begin(),
                                    delta.changed_routes.end());
  for (const auto& [n, label] : delta.label_updates) {
    if (const auto it = node_routes_.find(n); it != node_routes_.end()) {
      legal_affected.insert(it->second.begin(), it->second.end());
    }
  }
  for (const RouteKey& key : delta.removed_routes) {
    legal_affected.erase(key);
  }
  for (const RouteKey& key : legal_affected) {
    const RouteLegality entry = classify_route(
        map, new_labels, key.first, key.second, routes.routes.at(key));
    if (const auto it = legal_.find(key); it != legal_.end()) {
      illegal_ -= it->second.legal ? 0u : 1u;
      it->second = entry;
    } else {
      legal_.emplace(key, entry);
    }
    illegal_ += entry.legal ? 0u : 1u;
    delta.legality_updates.push_back(entry);
  }
  for (const RouteKey& key : delta.removed_routes) {
    const auto it = legal_.find(key);
    SANMAP_CHECK_MSG(it != legal_.end(), "removed route has no cached entry");
    illegal_ -= it->second.legal ? 0u : 1u;
    legal_.erase(it);
  }
  labels_ = std::move(new_labels);

  // ---- deadlock graph: refcounted edges + maintained order ---------------
  const EdgeTransitions transitions =
      apply_route_edge_deltas(map, routes.routes, delta.changed_routes,
                              delta.removed_routes, chan_path_, edge_ref_);
  for (const EdgePair& e : transitions.removed) {
    remove_order_edge(e.first, e.second);
    --dependencies_;
    delta.removed_edges.emplace_back(channel_from_id(e.first),
                                     channel_from_id(e.second));
  }
  for (const EdgePair& e : transitions.inserted) {
    ++dependencies_;
    if (!insert_order_edge(e.first, e.second, delta)) {
      // The insert closed a cycle: the full path re-derives it and emits
      // SL201 with the concrete counterexample.
      return full_path(map, routes, EscalationReason::kCycle);
    }
    delta.inserted_edges.emplace_back(channel_from_id(e.first),
                                      channel_from_id(e.second));
  }

  // ---- fabric caches: degrees, isolated set, components ------------------
  degree_.resize(ncap, 0);
  std::set<topo::NodeId> touched_nodes(delta.dirty_nodes.begin(),
                                       delta.dirty_nodes.end());
  for (const auto& e : removed_e) {
    --degree_[e.a];
    --degree_[e.b];
    touched_nodes.insert(e.a);
    touched_nodes.insert(e.b);
  }
  for (const auto& e : added_e) {
    ++degree_[e.a];
    ++degree_[e.b];
    touched_nodes.insert(e.a);
    touched_nodes.insert(e.b);
  }
  for (const topo::NodeId n : touched_nodes) {
    if (map.node_alive(n) && degree_[n] == 0) {
      isolated_.insert(n);
    } else {
      isolated_.erase(n);
    }
  }
  if (!delta.dirty_nodes.empty() || !delta.dirty_wires.empty()) {
    std::vector<int> scratch;
    components_ = topo::components(map, scratch);
  }

  // ---- per-source BFS maintenance ----------------------------------------
  if (options_.analyzer.route_lints) {
    for (auto it = bfs_.begin(); it != bfs_.end();) {
      const auto first = routes.routes.lower_bound({it->first, 0});
      const bool still_a_source =
          first != routes.routes.end() && first->first.first == it->first;
      it = still_a_source ? std::next(it) : bfs_.erase(it);
    }
    if (!removed_e.empty() || !added_e.empty()) {
      for (auto& [src, bfs] : bfs_) {
        bfs.apply(map, removed_e, added_e);
      }
    }
    for (const auto& [key, route] : routes.routes) {
      if (!bfs_.contains(key.first)) {
        bfs_.emplace(key.first, topo::DynamicBfs(map, key.first));
      }
    }
  }

  // ---- commit the mirrors ------------------------------------------------
  node_fp_.resize(ncap);
  for (const topo::NodeId n : delta.dirty_nodes) {
    const bool alive = map.node_alive(n);
    node_fp_[n] = NodeFp{alive, alive && map.is_host(n)};
  }
  wire_fp_.resize(wcap);
  // Parallel-cable index repair. Within a group, the full scan enumerates
  // wires by ascending id, so inserts land at lower_bound to keep the SL403
  // hottest-wire tie-break identical; erases are unconditional (host-facing
  // wires were simply never indexed).
  const auto add_channel = [this](topo::NodeId from, topo::NodeId to,
                                  topo::WireId w, bool a_to_b) {
    auto& group = parallel_[{from, to}];
    const auto pos = std::lower_bound(
        group.begin(), group.end(), w,
        [](const std::pair<topo::WireId, bool>& e, topo::WireId id) {
          return e.first < id;
        });
    group.insert(pos, {w, a_to_b});
  };
  const auto drop_channel = [this](topo::NodeId from, topo::NodeId to,
                                   topo::WireId w) {
    const auto it = parallel_.find({from, to});
    if (it == parallel_.end()) {
      return;
    }
    std::erase_if(it->second,
                  [w](const std::pair<topo::WireId, bool>& e) {
                    return e.first == w;
                  });
    if (it->second.empty()) {
      parallel_.erase(it);
    }
  };
  for (const topo::WireId w : delta.dirty_wires) {
    if (map.wire_alive(w)) {
      const topo::Wire& wire = map.wire(w);
      if (options_.analyzer.route_lints && map.is_switch(wire.a.node) &&
          map.is_switch(wire.b.node)) {
        add_channel(wire.a.node, wire.b.node, w, true);
        add_channel(wire.b.node, wire.a.node, w, false);
      }
      wire_fp_[w] = WireFp{true, wire.a.node, wire.b.node};
    } else {
      if (options_.analyzer.route_lints && wire_fp_[w].alive) {
        drop_channel(wire_fp_[w].a, wire_fp_[w].b, w);
        drop_channel(wire_fp_[w].b, wire_fp_[w].a, w);
      }
      wire_fp_[w].alive = false;
    }
  }
  // Channel-load repair mirrors the route commit. Directions come from the
  // wire fingerprints (endpoints are immutable per id and survive death), so
  // draining an old route never dereferences a dead wire; a drain exactly
  // cancels the fill that added the route, keeping loads_ equal to a
  // from-scratch channel_loads() of the committed table.
  const auto drain_load = [this](const routing::HostRoute& route) {
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const topo::WireId w = route.wires[i];
      const auto it = loads_.find({w, wire_fp_[w].a == route.nodes[i]});
      if (it != loads_.end() && --it->second == 0) {
        loads_.erase(it);
      }
    }
  };
  const auto fill_load = [this](const routing::HostRoute& route) {
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const topo::WireId w = route.wires[i];
      loads_[{w, wire_fp_[w].a == route.nodes[i]}] += 1;
    }
  };
  for (const RouteKey& key : delta.removed_routes) {
    const auto it = routes_.find(key);
    unindex_route(key, it->second);
    if (options_.analyzer.route_lints) {
      drain_load(it->second);
    }
    routes_.erase(it);
  }
  for (const RouteKey& key : delta.changed_routes) {
    const routing::HostRoute& now = routes.routes.at(key);
    if (const auto it = routes_.find(key); it != routes_.end()) {
      unindex_route(key, it->second);
      if (options_.analyzer.route_lints) {
        drain_load(it->second);
      }
      it->second = now;
    } else {
      routes_.emplace(key, now);
    }
    index_route(key, now);
    if (options_.analyzer.route_lints) {
      fill_load(now);
    }
  }

  ++revision_;
  delta.revision = revision_;
  ++stats_.fast_path;

  // ---- assemble the result, in analyze()'s exact emission order ----------
  Result r;
  r.delta = std::move(delta);
  AnalysisResult& res = r.analysis;
  res.report.set_cap(options_.analyzer.diagnostics_cap);
  if (options_.analyzer.fabric_lints) {
    // On a live Topology only SL307/SL308 can fire (class invariants block
    // the rest); isolated_ iterates ascending like lint_fabric's node loop.
    for (const topo::NodeId n : isolated_) {
      emit_isolated_node(res.report, map.name(n), node_fp_[n].host);
    }
    emit_component_count(res.report, components_);
  }
  res.analyzed_routes = true;
  if (options_.analyzer.certificates) {
    LegalityCertificate& lc = res.legality;
    lc.root = root_;
    lc.root_name = map.name(root_);
    lc.labels = labels_;
    lc.routes.reserve(legal_.size());
    for (const auto& [key, entry] : legal_) {
      lc.routes.push_back(entry);
      lc.all_legal = lc.all_legal && entry.legal;
    }
    emit_legality_findings(map, lc, res.report);

    DeadlockCertificate& dc = res.deadlock;
    dc.deadlock_free = true;
    dc.channels = map.wire_capacity() * 2;
    dc.dependencies = dependencies_;
    dc.topological_order.reserve(chan_at_rank_.size());
    for (const auto& [rank, c] : chan_at_rank_) {
      dc.topological_order.push_back(channel_from_id(c));
    }
    emit_deadlock_findings(dc, res.report);
  }
  if (options_.analyzer.route_lints) {
    lint_route_quality(map, routes, options_.analyzer.lints, res.report,
                       [this](topo::NodeId src) -> const std::vector<int>& {
                         return bfs_.at(src).distances();
                       },
                       parallel_, loads_);
  }
  return r;
}

void AnalysisState::ensure_rank(std::size_t channel) {
  if (rank_of_.contains(channel)) {
    return;
  }
  const std::uint64_t rank =
      chan_at_rank_.empty() ? kRankGap : chan_at_rank_.rbegin()->first + kRankGap;
  rank_of_.emplace(channel, rank);
  chan_at_rank_.emplace(rank, channel);
}

void AnalysisState::drop_if_isolated(std::size_t channel) {
  const auto oit = out_.find(channel);
  if (oit != out_.end() && oit->second.empty()) {
    out_.erase(oit);
  }
  const auto iit = in_.find(channel);
  if (iit != in_.end() && iit->second.empty()) {
    in_.erase(iit);
  }
  if (!out_.contains(channel) && !in_.contains(channel)) {
    const auto rit = rank_of_.find(channel);
    if (rit != rank_of_.end()) {
      chan_at_rank_.erase(rit->second);
      rank_of_.erase(rit);
    }
  }
}

void AnalysisState::remove_order_edge(std::size_t from, std::size_t to) {
  if (const auto it = out_.find(from); it != out_.end()) {
    it->second.erase(to);
  }
  if (const auto it = in_.find(to); it != in_.end()) {
    it->second.erase(from);
  }
  drop_if_isolated(from);
  drop_if_isolated(to);
}

bool AnalysisState::rebuild_order() {
  // Kahn elimination in ascending channel-id order — the same tie-break as
  // build_deadlock_certificate, so a rebuilt order matches a from-scratch
  // certificate's.
  std::map<std::size_t, std::size_t> indeg;
  for (const auto& [c, rank] : rank_of_) {
    const auto it = in_.find(c);
    indeg[c] = it == in_.end() ? 0 : it->second.size();
  }
  std::deque<std::size_t> ready;
  for (const auto& [c, d] : indeg) {
    if (d == 0) {
      ready.push_back(c);
    }
  }
  std::vector<std::size_t> order;
  order.reserve(indeg.size());
  while (!ready.empty()) {
    const std::size_t c = ready.front();
    ready.pop_front();
    order.push_back(c);
    if (const auto it = out_.find(c); it != out_.end()) {
      for (const std::size_t to : it->second) {
        if (--indeg[to] == 0) {
          ready.push_back(to);
        }
      }
    }
  }
  if (order.size() != indeg.size()) {
    return false;  // a cycle survives elimination
  }
  rank_of_.clear();
  chan_at_rank_.clear();
  std::uint64_t rank = kRankGap;
  for (const std::size_t c : order) {
    rank_of_.emplace(c, rank);
    chan_at_rank_.emplace(rank, c);
    rank += kRankGap;
  }
  ++stats_.order_rebuilds;
  return true;
}

bool AnalysisState::insert_order_edge(std::size_t from, std::size_t to,
                                      CertificateDelta& delta) {
  if (from == to) {
    return false;  // self-dependency: a one-channel cycle
  }
  out_[from].insert(to);
  in_[to].insert(from);
  ensure_rank(from);
  ensure_rank(to);
  const std::uint64_t ru = rank_of_.at(from);
  const std::uint64_t rv = rank_of_.at(to);
  if (rv > ru) {
    return true;  // already consistent
  }

  // Pearce-Kelly window repair. All existing edges ascend in rank, so any
  // path out of `to` stays within (rv, ru] until it either exits the window
  // or reaches `from` (which would close a cycle).
  std::set<std::size_t> fwd;
  std::vector<std::size_t> stack{to};
  bool overflow = false;
  while (!stack.empty()) {
    const std::size_t x = stack.back();
    stack.pop_back();
    if (!fwd.insert(x).second) {
      continue;
    }
    if (x == from) {
      // Roll back the adjacency insert so the graph matches the refcounts
      // the caller re-primes from.
      remove_order_edge(from, to);
      return false;
    }
    if (fwd.size() > kRepairWindow) {
      overflow = true;
      break;
    }
    if (const auto it = out_.find(x); it != out_.end()) {
      for (const std::size_t y : it->second) {
        if (rank_of_.at(y) <= ru && !fwd.contains(y)) {
          stack.push_back(y);
        }
      }
    }
  }
  std::set<std::size_t> bwd;
  if (!overflow) {
    stack.assign(1, from);
    while (!stack.empty()) {
      const std::size_t x = stack.back();
      stack.pop_back();
      if (!bwd.insert(x).second) {
        continue;
      }
      if (fwd.size() + bwd.size() > kRepairWindow) {
        overflow = true;
        break;
      }
      if (const auto it = in_.find(x); it != in_.end()) {
        for (const std::size_t y : it->second) {
          if (rank_of_.at(y) >= rv && !bwd.contains(y)) {
            stack.push_back(y);
          }
        }
      }
    }
  }
  if (overflow) {
    delta.order_rebuilt = true;
    if (!rebuild_order()) {
      remove_order_edge(from, to);
      return false;
    }
    return true;
  }

  // Reassign the affected ranks: the backward set (everything reaching
  // `from` inside the window) takes the low slots, the forward set the high
  // ones, both keeping their internal old-rank order.
  std::vector<std::size_t> b_sorted(bwd.begin(), bwd.end());
  std::vector<std::size_t> f_sorted(fwd.begin(), fwd.end());
  const auto by_rank = [this](std::size_t a, std::size_t b) {
    return rank_of_.at(a) < rank_of_.at(b);
  };
  std::sort(b_sorted.begin(), b_sorted.end(), by_rank);
  std::sort(f_sorted.begin(), f_sorted.end(), by_rank);
  std::vector<std::uint64_t> slots;
  slots.reserve(b_sorted.size() + f_sorted.size());
  for (const std::size_t c : b_sorted) {
    slots.push_back(rank_of_.at(c));
  }
  for (const std::size_t c : f_sorted) {
    slots.push_back(rank_of_.at(c));
  }
  std::sort(slots.begin(), slots.end());
  std::size_t slot = 0;
  for (const std::size_t c : b_sorted) {
    chan_at_rank_.erase(rank_of_.at(c));
    rank_of_[c] = slots[slot++];
  }
  for (const std::size_t c : f_sorted) {
    chan_at_rank_.erase(rank_of_.at(c));
    rank_of_[c] = slots[slot++];
  }
  for (const std::size_t c : b_sorted) {
    chan_at_rank_.emplace(rank_of_.at(c), c);
  }
  for (const std::size_t c : f_sorted) {
    chan_at_rank_.emplace(rank_of_.at(c), c);
  }
  ++stats_.order_repairs;
  return true;
}

// ---------------------------------------------------------------------------
// DeltaChecker

void DeltaChecker::seed(const topo::Topology& map,
                        const routing::RoutingResult& routes,
                        const AnalysisResult& full) {
  root_ = routes.orientation.root();
  node_alive_.assign(map.node_capacity(), 0);
  for (topo::NodeId n = 0; n < map.node_capacity(); ++n) {
    node_alive_[n] = map.node_alive(n) ? 1 : 0;
  }
  wire_alive_.assign(map.wire_capacity(), 0);
  for (topo::WireId w = 0; w < map.wire_capacity(); ++w) {
    wire_alive_[w] = map.wire_alive(w) ? 1 : 0;
  }
  routes_ = routes.routes;
  node_routes_.clear();
  for (const auto& [key, route] : routes_) {
    for (const topo::NodeId n : route.nodes) {
      node_routes_[n].insert(key);
    }
  }
  labels_ = full.legality.labels;
  legal_.clear();
  std::size_t i = 0;
  for (const auto& [key, route] : routes_) {
    legal_.emplace(key, full.legality.routes[i++]);
  }
  chan_path_.clear();
  edge_ref_.clear();
  chan_edges_.clear();
  dependencies_ = 0;
  for (const auto& [key, route] : routes_) {
    auto path = channel_id_path(map, route);
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      ++edge_ref_[{path[j], path[j + 1]}];
    }
    chan_path_.emplace(key, std::move(path));
  }
  for (const auto& [e, count] : edge_ref_) {
    ++chan_edges_[e.first];
    ++chan_edges_[e.second];
    ++dependencies_;
  }
  seeded_ = true;
}

bool DeltaChecker::check(const topo::Topology& map,
                         const routing::RoutingResult& routes,
                         const AnalysisResult& result,
                         const CertificateDelta& delta,
                         std::vector<std::string>* why) {
  if (delta.escalated_full) {
    // An escalated step stands on the full certificates; re-prove them with
    // the from-scratch checkers and reseed the mirror from the result.
    bool ok = true;
    if (result.analyzed_routes) {
      ok = check_legality(map, routes, result.legality, why) && ok;
      ok = check_deadlock(routing::route_channel_paths(map, routes),
                          result.deadlock, why) &&
           ok;
    }
    if (ok && result.analyzed_routes && result.deadlock.deadlock_free) {
      seed(map, routes, result);
    } else {
      seeded_ = false;
    }
    revision_ = delta.revision;
    return ok;
  }

  // Any rejection below poisons the mirror; the caller must escalate (which
  // reseeds) before incremental deltas are accepted again.
  const auto fail = [&](const std::string& line) {
    explain(why, line);
    seeded_ = false;
    return false;
  };
  if (!seeded_) {
    return fail("no proven baseline to apply an incremental delta to");
  }
  if (delta.base_revision != revision_) {
    return fail("delta base revision " + std::to_string(delta.base_revision) +
                " does not extend proven revision " +
                std::to_string(revision_));
  }
  if (map.node_capacity() < node_alive_.size() ||
      map.wire_capacity() < wire_alive_.size()) {
    return fail("id space shrank without a full escalation");
  }
  if (routes.orientation.root() != root_) {
    return fail("table root changed without a full escalation");
  }

  // 1. The dirty sets must be exactly what our own mirror derives.
  std::vector<topo::NodeId> my_dirty_nodes;
  for (topo::NodeId n = 0; n < map.node_capacity(); ++n) {
    const bool was = n < node_alive_.size() && node_alive_[n] != 0;
    if (map.node_alive(n) != was) {
      my_dirty_nodes.push_back(n);
    }
  }
  if (my_dirty_nodes != delta.dirty_nodes) {
    return fail("dirty node set does not match the map diff");
  }
  std::vector<topo::WireId> my_dirty_wires;
  for (topo::WireId w = 0; w < map.wire_capacity(); ++w) {
    const bool was = w < wire_alive_.size() && wire_alive_[w] != 0;
    if (map.wire_alive(w) != was) {
      my_dirty_wires.push_back(w);
    }
  }
  if (my_dirty_wires != delta.dirty_wires) {
    return fail("dirty wire set does not match the map diff");
  }

  // 2. Same for the route diff.
  std::vector<RouteKey> my_changed;
  std::vector<RouteKey> my_removed;
  diff_routes(routes_, routes.routes, my_changed, my_removed);
  if (my_changed != delta.changed_routes || my_removed != delta.removed_routes) {
    return fail("route diff does not match the table diff");
  }

  // 3. Labels: the certificate's labels must equal our proven baseline plus
  // exactly the claimed updates (check_legality's trust model — labels are
  // the certificate's axiom; routes are re-proved against them below).
  std::vector<int> labels = labels_;
  labels.resize(map.node_capacity(), 0);
  for (const auto& [n, label] : delta.label_updates) {
    if (n >= labels.size()) {
      return fail("label update names a node outside the map");
    }
    if (labels[n] == label) {
      return fail("label update is a no-op");
    }
    labels[n] = label;
  }
  if (result.legality.labels != labels) {
    return fail("certificate labels disagree with the patched baseline");
  }

  // 4. Legality updates must cover exactly the changed routes plus the
  // label closure, and every entry must re-derive from the labels.
  std::set<RouteKey> need(delta.changed_routes.begin(),
                          delta.changed_routes.end());
  for (const auto& [n, label] : delta.label_updates) {
    if (const auto it = node_routes_.find(n); it != node_routes_.end()) {
      need.insert(it->second.begin(), it->second.end());
    }
  }
  for (const RouteKey& key : delta.removed_routes) {
    need.erase(key);
  }
  if (delta.legality_updates.size() != need.size()) {
    return fail("legality updates do not cover the affected routes");
  }
  auto need_it = need.begin();
  for (const RouteLegality& entry : delta.legality_updates) {
    const RouteKey key{entry.src, entry.dst};
    if (key != *need_it) {
      return fail("legality update names an unaffected or missing route");
    }
    ++need_it;
    const auto rit = routes.routes.find(key);
    if (rit == routes.routes.end()) {
      return fail("legality update names a route absent from the table");
    }
    const RouteLegality derived =
        classify_route(map, labels, key.first, key.second, rit->second);
    if (derived.legal != entry.legal || derived.apex_hop != entry.apex_hop ||
        derived.offending_hop != entry.offending_hop) {
      return fail("legality entry for route does not re-derive from labels");
    }
    legal_[key] = entry;
  }
  for (const RouteKey& key : delta.removed_routes) {
    legal_.erase(key);
  }
  if (legal_.size() != result.legality.routes.size()) {
    return fail("certificate route count disagrees with the table");
  }
  bool all_legal = true;
  std::size_t i = 0;
  for (const auto& [key, entry] : legal_) {
    const RouteLegality& theirs = result.legality.routes[i++];
    if (theirs.src != entry.src || theirs.dst != entry.dst ||
        theirs.legal != entry.legal || theirs.apex_hop != entry.apex_hop ||
        theirs.offending_hop != entry.offending_hop) {
      return fail("certificate entries diverge from the proven baseline");
    }
    all_legal = all_legal && entry.legal;
  }
  if (result.legality.all_legal != all_legal) {
    return fail("all_legal flag disagrees with the per-route entries");
  }
  if (result.legality.root != root_ ||
      result.legality.root_name != map.name(root_)) {
    return fail("certificate root disagrees with the proven baseline");
  }

  // 5. Deadlock: re-derive the structural edge transitions from the raw
  // routes on our own multiset and compare with the claim.
  const EdgeTransitions mine = apply_route_edge_deltas(
      map, routes.routes, delta.changed_routes, delta.removed_routes,
      chan_path_, edge_ref_);
  if (mine.inserted != to_id_pairs(delta.inserted_edges) ||
      mine.removed != to_id_pairs(delta.removed_edges)) {
    return fail("dependency-edge delta does not re-derive from the routes");
  }
  for (const EdgePair& e : mine.removed) {
    --dependencies_;
    for (const std::size_t c : {e.first, e.second}) {
      if (--chan_edges_[c] == 0) {
        chan_edges_.erase(c);
      }
    }
  }
  for (const EdgePair& e : mine.inserted) {
    if (e.first == e.second) {
      return fail("inserted self-dependency cannot be deadlock-free");
    }
    ++dependencies_;
    ++chan_edges_[e.first];
    ++chan_edges_[e.second];
  }
  if (!result.deadlock.deadlock_free) {
    return fail("incremental delta carries a cyclic verdict");
  }
  if (result.deadlock.channels != map.wire_capacity() * 2 ||
      result.deadlock.dependencies != dependencies_) {
    return fail("deadlock certificate counts disagree with the multiset");
  }

  // 6. Re-prove the full topological order against our own edge set: every
  // participating channel exactly once, every structural edge forward.
  const auto& order = result.deadlock.topological_order;
  if (order.size() != chan_edges_.size()) {
    return fail("topological order length disagrees with the participants");
  }
  std::map<std::size_t, std::size_t> pos;
  for (std::size_t j = 0; j < order.size(); ++j) {
    const std::size_t id = channel_id(order[j]);
    if (!chan_edges_.contains(id)) {
      return fail("topological order names a non-participating channel");
    }
    if (!pos.emplace(id, j).second) {
      return fail("channel repeats in the topological order");
    }
  }
  for (const auto& [e, count] : edge_ref_) {
    if (pos.at(e.first) >= pos.at(e.second)) {
      return fail("a dependency points backward in the topological order");
    }
  }

  // 7. The delta holds: advance the mirror.
  node_alive_.resize(map.node_capacity(), 0);
  for (const topo::NodeId n : delta.dirty_nodes) {
    node_alive_[n] = map.node_alive(n) ? 1 : 0;
  }
  wire_alive_.resize(map.wire_capacity(), 0);
  for (const topo::WireId w : delta.dirty_wires) {
    wire_alive_[w] = map.wire_alive(w) ? 1 : 0;
  }
  const auto drop_route_nodes = [&](const RouteKey& key,
                                    const routing::HostRoute& route) {
    for (const topo::NodeId n : route.nodes) {
      if (const auto it = node_routes_.find(n); it != node_routes_.end()) {
        it->second.erase(key);
        if (it->second.empty()) {
          node_routes_.erase(it);
        }
      }
    }
  };
  for (const RouteKey& key : delta.removed_routes) {
    const auto it = routes_.find(key);
    drop_route_nodes(key, it->second);
    routes_.erase(it);
  }
  for (const RouteKey& key : delta.changed_routes) {
    const routing::HostRoute& now = routes.routes.at(key);
    if (const auto it = routes_.find(key); it != routes_.end()) {
      drop_route_nodes(key, it->second);
      it->second = now;
    } else {
      routes_.emplace(key, now);
    }
    for (const topo::NodeId n : now.nodes) {
      node_routes_[n].insert(key);
    }
  }
  labels_ = std::move(labels);
  revision_ = delta.revision;
  return true;
}

}  // namespace sanmap::analysis
