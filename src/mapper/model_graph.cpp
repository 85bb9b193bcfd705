#include "mapper/model_graph.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "common/log.hpp"

namespace sanmap::mapper {

VertexId ModelGraph::add_host_vertex(simnet::Route probe_string,
                                     std::string host_name) {
  SANMAP_CHECK(!host_name.empty());
  const auto id = static_cast<VertexId>(vertices_.size());
  Vertex v;
  v.probe_string = std::move(probe_string);
  v.kind = topo::NodeKind::kHost;
  v.host_name = host_name;
  v.explored = true;  // hosts are leaves; there is nothing to explore
  vertices_.push_back(std::move(v));
  alias_.push_back(Resolved{id, 0});
  ++live_vertices_;

  const auto it = host_registry_.find(host_name);
  if (it == host_registry_.end()) {
    host_registry_.emplace(std::move(host_name), id);
  } else {
    // Two model vertices claim the same host: they are replicates, and both
    // anchor their single wire at relative index 0 (a host has one port).
    merge_queue_.push_back(MergeRequest{it->second, id, 0});
  }
  return id;
}

VertexId ModelGraph::add_switch_vertex(simnet::Route probe_string) {
  const auto id = static_cast<VertexId>(vertices_.size());
  Vertex v;
  v.probe_string = std::move(probe_string);
  v.kind = topo::NodeKind::kSwitch;
  vertices_.push_back(std::move(v));
  alias_.push_back(Resolved{id, 0});
  ++live_vertices_;
  return id;
}

EdgeId ModelGraph::add_edge(VertexId a, int index_a, VertexId b,
                            int index_b) {
  // Endpoints may have been merged away since the caller last looked (the
  // merge cascade runs during exploration); attach to the canonical objects.
  const Resolved ra = resolve(a);
  const Resolved rb = resolve(b);
  SANMAP_CHECK(vertex_alive(ra.vertex) && vertex_alive(rb.vertex));
  const int ia = index_a + ra.shift;
  const int ib = index_b + rb.shift;
  SANMAP_CHECK_MSG(!(ra.vertex == rb.vertex && ia == ib),
                   "edge cannot attach twice to one slot");

  const auto id = static_cast<EdgeId>(edges_.size());
  Edge e;
  e.vertex[0] = ra.vertex;
  e.index[0] = ia;
  e.vertex[1] = rb.vertex;
  e.index[1] = ib;
  edges_.push_back(e);
  ++live_edges_;
  vertices_[ra.vertex].slots.add(ia, id);
  vertices_[rb.vertex].slots.add(ib, id);
  if (vertices_[ra.vertex].slots.at(ia).size() > 1) {
    schedule_slot_merges(ra.vertex, ia);
  }
  if (vertices_[rb.vertex].slots.at(ib).size() > 1) {
    schedule_slot_merges(rb.vertex, ib);
  }
  return id;
}

Resolved ModelGraph::resolve(VertexId v) const {
  SANMAP_CHECK(v < alias_.size());
  VertexId root = v;
  int total = 0;
  while (alias_[root].vertex != root) {
    total += alias_[root].shift;
    root = alias_[root].vertex;
  }
  // Path compression, preserving accumulated shifts.
  VertexId cursor = v;
  int from_v = 0;
  while (alias_[cursor].vertex != cursor) {
    const VertexId next = alias_[cursor].vertex;
    const int step = alias_[cursor].shift;
    alias_[cursor] = Resolved{root, total - from_v};
    from_v += step;
    cursor = next;
  }
  return Resolved{root, total};
}

bool ModelGraph::vertex_alive(VertexId v) const {
  return v < vertices_.size() && vertices_[v].alive;
}

const Vertex& ModelGraph::vertex(VertexId v) const {
  SANMAP_CHECK(v < vertices_.size());
  return vertices_[v];
}

std::pair<VertexId, int> ModelGraph::far_end(EdgeId e, VertexId v,
                                             int i) const {
  SANMAP_CHECK(e < edges_.size());
  const Edge& rec = edges_[e];
  const int end = rec.end_of(v, i);
  return {rec.vertex[1 - end], rec.index[1 - end]};
}

void ModelGraph::mark_explored(VertexId v) {
  const Resolved r = resolve(v);
  SANMAP_CHECK(vertex_alive(r.vertex));
  vertices_[r.vertex].explored = true;
}

int ModelGraph::degree(VertexId v) const {
  SANMAP_CHECK(vertex_alive(v));
  return static_cast<int>(vertices_[v].slots.size());
}

void ModelGraph::kill_edge(EdgeId e) {
  Edge& rec = edges_[e];
  SANMAP_CHECK(rec.alive);
  for (int end = 0; end < 2; ++end) {
    vertices_[rec.vertex[end]].slots.remove(rec.index[end], e);
  }
  rec.alive = false;
  --live_edges_;
}

void ModelGraph::schedule_slot_merges(VertexId v, int slot_index) {
  const std::span<const SlotTable::Entry> here =
      vertices_[v].slots.at(slot_index);
  if (here.size() < 2) {
    return;
  }
  // All edges in one slot represent the same actual wire: their far ends
  // must be the same actual (node, port). Take the first as the reference;
  // deduplicate identical copies and schedule merges for distinct vertices.
  const auto [ref_vertex, ref_index] =
      far_end(here.front().edge, v, slot_index);
  // Copy: kill_edge and merge scheduling mutate the live table.
  std::vector<EdgeId> edges_here;
  edges_here.reserve(here.size() - 1);
  for (std::size_t i = 1; i < here.size(); ++i) {
    edges_here.push_back(here[i].edge);
  }
  for (const EdgeId e : edges_here) {
    const auto [far_vertex, far_index] = far_end(e, v, slot_index);
    if (far_vertex == ref_vertex && far_index == ref_index) {
      kill_edge(e);  // an exact duplicate of the reference edge
      continue;
    }
    SANMAP_CHECK_MSG(
        far_vertex != ref_vertex,
        "one model port wired to two ports of the same vertex — "
        "inconsistent probe data");
    SANMAP_CHECK_MSG(
        vertices_[far_vertex].kind == vertices_[ref_vertex].kind,
        "one model port wired to both a host and a switch — "
        "inconsistent probe data");
    merge_queue_.push_back(
        MergeRequest{ref_vertex, far_vertex, ref_index - far_index});
  }
}

void ModelGraph::execute_merge(const MergeRequest& request) {
  const Resolved keep = resolve(request.keep);
  const Resolved gone = resolve(request.gone);
  if (keep.vertex == gone.vertex) {
    // Already merged; the shifts must agree or the probe data contradicts
    // itself (a vertex cannot be offset from itself).
    SANMAP_CHECK_MSG(request.shift + keep.shift == gone.shift,
                     "replicate deduction with inconsistent indexing offset");
    return;
  }
  Vertex& dst = vertices_[keep.vertex];
  Vertex& src = vertices_[gone.vertex];
  SANMAP_CHECK(dst.alive && src.alive);
  SANMAP_CHECK_MSG(dst.kind == src.kind,
                   "replicate deduction merging a host with a switch");
  if (dst.kind == topo::NodeKind::kHost) {
    SANMAP_CHECK_MSG(dst.host_name == src.host_name,
                     "replicate deduction merging two distinct hosts");
  }
  // gone index j == request.gone index (j - gone.shift)
  //             == request.keep index (j - gone.shift + request.shift)
  //             == keep index (j - gone.shift + request.shift + keep.shift).
  const int shift = request.shift + keep.shift - gone.shift;

  // Move every edge of src to dst, re-indexing by `shift` (the paper's
  // mergeLabels re-indexing). The slot table iterates in ascending index
  // order, so `affected` collects each distinct index once.
  std::vector<int> affected;
  for (const SlotTable::Entry& entry : src.slots) {
    const int new_index = entry.index + shift;
    Edge& rec = edges_[entry.edge];
    // A model self-loop appears in two slots of src; rewrite exactly the
    // end that sits at this (src, index).
    const int end = rec.end_of(gone.vertex, entry.index);
    rec.vertex[end] = keep.vertex;
    rec.index[end] = new_index;
    dst.slots.add(new_index, entry.edge);
    if (affected.empty() || affected.back() != new_index) {
      affected.push_back(new_index);
    }
  }
  src.slots.clear();
  src.alive = false;
  dst.explored = dst.explored || src.explored;
  // dst keeps its own probe_string: a vertex's slot indices are relative to
  // the entry port of its own discovery path, and that path is what the
  // mapper re-probes when exploring, so the two must stay paired.
  alias_[gone.vertex] = Resolved{keep.vertex, shift};
  --live_vertices_;
  SANMAP_LOG(kDebug, "model", "merged v" << gone.vertex << " into v"
                                         << keep.vertex << " shift "
                                         << shift);

  for (const int index : affected) {
    schedule_slot_merges(keep.vertex, index);
  }
}

int ModelGraph::stabilize() {
  int merges = 0;
  // The queue grows while we drain it; index-based iteration keeps this
  // O(total requests).
  for (std::size_t head = 0; head < merge_queue_.size(); ++head) {
    const MergeRequest request = merge_queue_[head];
    const std::size_t live_before = live_vertices_;
    execute_merge(request);
    if (live_vertices_ != live_before) {
      ++merges;
    }
  }
  merge_queue_.clear();
  return merges;
}

int ModelGraph::prune() {
  SANMAP_CHECK_MSG(stabilized(), "prune requires a stabilized model");
  // A vertex is prunable when it is a live switch with at most one incident
  // edge-end and that edge does not lead to a host: a switch whose one wire
  // leads to a host is adjacent to that host, so no switch-bridge separates
  // it (Lemma 1) — it is core, not a dead-end stub. The degenerate
  // mapper-host-and-one-switch network is exactly this shape.
  const auto prunable = [&](VertexId v) {
    if (!vertices_[v].alive || vertices_[v].kind != topo::NodeKind::kSwitch ||
        degree(v) > 1) {
      return false;
    }
    for (const SlotTable::Entry& entry : vertices_[v].slots) {
      const auto [far, far_index] = far_end(entry.edge, v, entry.index);
      if (far != v && vertices_[far].kind == topo::NodeKind::kHost) {
        return false;
      }
    }
    return true;
  };
  // Worklist instead of whole-table rescans: killing a stub's edge can make
  // only that edge's far endpoint newly prunable, so the fixpoint (which is
  // confluent — the deleted set is unique regardless of order) is reached
  // in O(deleted) work instead of O(V) per deleted vertex.
  std::vector<VertexId> worklist;
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (prunable(v)) {
      worklist.push_back(v);
    }
  }
  int deleted = 0;
  while (!worklist.empty()) {
    const VertexId v = worklist.back();
    worklist.pop_back();
    if (!prunable(v)) {
      continue;  // deleted via another path, or stale duplicate entry
    }
    // Degree <= 1: at most one incident edge. Kill it and requeue its far
    // endpoint, whose degree just dropped.
    if (!vertices_[v].slots.empty()) {
      const SlotTable::Entry entry = *vertices_[v].slots.begin();
      const Edge& rec = edges_[entry.edge];
      const VertexId far =
          rec.vertex[0] == v ? rec.vertex[1] : rec.vertex[0];
      kill_edge(entry.edge);
      if (far != v && prunable(far)) {
        worklist.push_back(far);
      }
    }
    vertices_[v].alive = false;
    --live_vertices_;
    ++deleted;
  }
  return deleted;
}

void ModelGraph::validate() const {
  std::size_t live_v = 0;
  std::size_t slot_ends = 0;
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    const Vertex& rec = vertices_[v];
    if (!rec.alive) {
      SANMAP_CHECK_MSG(rec.slots.empty(), "dead vertex still holds slots");
      continue;
    }
    ++live_v;
    int prev_index = 0;
    bool first = true;
    for (const SlotTable::Entry& entry : rec.slots) {
      SANMAP_CHECK_MSG(first || entry.index >= prev_index,
                       "slot table lost its index ordering");
      prev_index = entry.index;
      first = false;
      SANMAP_CHECK(entry.edge < edges_.size());
      const Edge& edge = edges_[entry.edge];
      SANMAP_CHECK_MSG(edge.alive, "slot lists a dead edge");
      const bool end0 = edge.vertex[0] == v && edge.index[0] == entry.index;
      const bool end1 = edge.vertex[1] == v && edge.index[1] == entry.index;
      SANMAP_CHECK_MSG(end0 || end1,
                       "edge does not claim the slot listing it");
      ++slot_ends;
    }
  }
  SANMAP_CHECK_MSG(live_v == live_vertices_, "live vertex count drifted");
  std::size_t live_e = 0;
  for (const Edge& edge : edges_) {
    if (!edge.alive) {
      continue;
    }
    ++live_e;
    for (int end = 0; end < 2; ++end) {
      const Vertex& rec = vertices_[edge.vertex[end]];
      SANMAP_CHECK_MSG(rec.alive, "live edge attached to a dead vertex");
      const auto here = rec.slots.at(edge.index[end]);
      const auto id = static_cast<EdgeId>(&edge - edges_.data());
      const bool listed = std::any_of(
          here.begin(), here.end(),
          [&](const SlotTable::Entry& entry) { return entry.edge == id; });
      SANMAP_CHECK_MSG(listed, "edge endpoint missing from its vertex slot");
    }
  }
  SANMAP_CHECK_MSG(live_e == live_edges_, "live edge count drifted");
  SANMAP_CHECK_MSG(slot_ends == 2 * live_e,
                   "slot end count does not match edge count");
  // Alias chains must terminate at self-rooted entries within one pass
  // over the table (no cycles).
  for (VertexId v = 0; v < alias_.size(); ++v) {
    VertexId cursor = v;
    for (std::size_t steps = 0;; ++steps) {
      SANMAP_CHECK_MSG(steps <= alias_.size(), "alias cycle detected");
      if (alias_[cursor].vertex == cursor) {
        break;
      }
      cursor = alias_[cursor].vertex;
    }
  }
}

topo::Topology ModelGraph::extract() const {
  SANMAP_CHECK_MSG(stabilized(),
                   "extract requires a stabilized model graph");
  topo::Topology out;
  std::vector<topo::NodeId> node_of(vertices_.size(), topo::kInvalidNode);
  std::vector<int> base(vertices_.size(), 0);

  for (VertexId v = 0; v < vertices_.size(); ++v) {
    const Vertex& rec = vertices_[v];
    if (!rec.alive) {
      continue;
    }
    node_of[v] = rec.kind == topo::NodeKind::kHost
                     ? out.add_host(rec.host_name)
                     : out.add_switch();
    if (!rec.slots.empty()) {
      const int lo = rec.slots.lo();
      const int hi = rec.slots.hi();
      SANMAP_CHECK_MSG(
          hi - lo < out.port_count(node_of[v]),
          "vertex slot span exceeds the port count — merge produced an "
          "impossible switch");
      base[v] = lo;
      // Sorted entries: a repeated index would be adjacent.
      int prev = lo - 1;
      for (const SlotTable::Entry& entry : rec.slots) {
        SANMAP_CHECK_MSG(entry.index != prev,
                         "conflicting slot survived stabilization");
        prev = entry.index;
      }
    }
  }

  for (const Edge& rec : edges_) {
    if (!rec.alive) {
      continue;
    }
    SANMAP_CHECK(vertices_[rec.vertex[0]].alive &&
                 vertices_[rec.vertex[1]].alive);
    out.connect(node_of[rec.vertex[0]], rec.index[0] - base[rec.vertex[0]],
                node_of[rec.vertex[1]], rec.index[1] - base[rec.vertex[1]]);
  }
  return out;
}

}  // namespace sanmap::mapper
