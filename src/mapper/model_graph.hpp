// The mapper's model graph M (§3.1.1) in its production, merged-vertex form
// (§3.3): vertices carry relative-indexed neighbor slots; replicate vertices
// are merged into one object, re-indexing their slots by the indexing-offset
// difference (Definition 1 / Lemma 2); a slot that ends up holding edges to
// two distinct vertices identifies those vertices as further replicates
// ("multiple links incident to a switch port identify additional
// replicates", §1.2) and the deduction cascades via a merge list until it
// stabilizes.
//
// Merged-away vertices leave behind an alias (union-find with accumulated
// index shift) so queued frontier entries and edge endpoints can always be
// resolved to the canonical object.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "simnet/route.hpp"
#include "topology/topology.hpp"

namespace sanmap::mapper {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;
inline constexpr VertexId kInvalidVertex = 0xffffffffu;

/// A vertex's slot table: relative index -> edges attached there, stored as
/// one flat vector of (index, edge) entries sorted by index (insertion
/// order within an index). This replaces a per-vertex
/// `std::map<int, std::vector<EdgeId>>`: megafabric mapping touches slots
/// millions of times, and a vertex's handful of entries (bounded by its
/// port count except transiently during a merge cascade) fit in one or two
/// cache lines with no per-slot node allocations. Iterating the table
/// visits entries in ascending index order, exactly like iterating the map
/// it replaced.
class SlotTable {
 public:
  struct Entry {
    int index;
    EdgeId edge;
  };
  using const_iterator = std::vector<Entry>::const_iterator;

  /// Attaches `edge` at `index`, after any edges already there.
  void add(int index, EdgeId edge) {
    entries_.insert(upper(index), Entry{index, edge});
  }
  /// Detaches one (index, edge) entry; false when absent.
  bool remove(int index, EdgeId edge) {
    for (auto it = lower(index); it != entries_.end() && it->index == index;
         ++it) {
      if (it->edge == edge) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }
  void clear() { entries_.clear(); }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Total attached edge-ends (== the vertex degree).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool contains(int index) const {
    const auto it = lower(index);
    return it != entries_.end() && it->index == index;
  }
  /// The edges attached at `index` (possibly none), in insertion order.
  [[nodiscard]] std::span<const Entry> at(int index) const {
    const auto first = lower(index);
    auto last = first;
    while (last != entries_.end() && last->index == index) {
      ++last;
    }
    return {first, last};
  }
  /// Lowest / highest used index. Require !empty().
  [[nodiscard]] int lo() const { return entries_.front().index; }
  [[nodiscard]] int hi() const { return entries_.back().index; }

  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

 private:
  [[nodiscard]] std::vector<Entry>::const_iterator lower(int index) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), index,
        [](const Entry& e, int i) { return e.index < i; });
  }
  [[nodiscard]] std::vector<Entry>::iterator lower(int index) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), index,
        [](const Entry& e, int i) { return e.index < i; });
  }
  [[nodiscard]] std::vector<Entry>::iterator upper(int index) {
    return std::upper_bound(
        entries_.begin(), entries_.end(), index,
        [](int i, const Entry& e) { return i < e.index; });
  }

  std::vector<Entry> entries_;
};

/// A model vertex. Slot indices are the paper's relative port numbers:
/// initially the turn that discovered the edge (or 0 for the edge back to
/// the discovering path); after merging, indices of a vertex are mutually
/// consistent offsets of the actual ports.
struct Vertex {
  simnet::Route probe_string;
  topo::NodeKind kind = topo::NodeKind::kSwitch;
  std::string host_name;  // kHost only — the unique identity from the probe
  bool alive = true;
  bool explored = false;
  /// Relative index -> edges attached there. More than one edge in a slot
  /// is transient: the merge cascade collapses it.
  SlotTable slots;
};

struct Edge {
  VertexId vertex[2] = {kInvalidVertex, kInvalidVertex};
  int index[2] = {0, 0};
  bool alive = true;

  /// Which end (0/1) is attached to v at index i.
  [[nodiscard]] int end_of(VertexId v, int i) const {
    return (vertex[0] == v && index[0] == i) ? 0 : 1;
  }
};

/// Resolution of a possibly merged-away vertex: the canonical vertex and the
/// index shift (canonical index = original index + shift).
struct Resolved {
  VertexId vertex = kInvalidVertex;
  int shift = 0;
};

class ModelGraph {
 public:
  ModelGraph() = default;

  // -- construction ---------------------------------------------------------

  /// Adds a host vertex. If a vertex for this host name already exists, the
  /// new vertex is created and immediately scheduled for merging with it
  /// (both anchor their single wire at relative index 0, §3.2.3).
  VertexId add_host_vertex(simnet::Route probe_string, std::string host_name);

  /// Adds a switch vertex (a "fresh label" in the paper's terms).
  VertexId add_switch_vertex(simnet::Route probe_string);

  /// Connects (a, index_a) to (b, index_b). Slot conflicts created by this
  /// edge are scheduled for merging.
  EdgeId add_edge(VertexId a, int index_a, VertexId b, int index_b);

  /// Runs the merge list to stabilization (§3.3's mergelist loop). Returns
  /// the number of vertex merges performed.
  int stabilize();

  /// Final prune (§3.1 PRUNE): repeatedly deletes dead-end switch vertices
  /// (at most one incident edge-end, and that edge not leading to a host —
  /// a host-adjacent switch is in the core by Lemma 1). Returns the number
  /// of vertices deleted. Degree-based pruning cannot see separated
  /// clusters that contain cycles; the mappers take topo::core() of the
  /// extracted map for those.
  int prune();

  // -- queries --------------------------------------------------------------

  [[nodiscard]] Resolved resolve(VertexId v) const;
  [[nodiscard]] bool vertex_alive(VertexId v) const;
  [[nodiscard]] const Vertex& vertex(VertexId v) const;

  /// The far (vertex, index) of an edge as seen from (v, i).
  [[nodiscard]] std::pair<VertexId, int> far_end(EdgeId e, VertexId v,
                                                 int i) const;

  /// Marks a vertex explored (idempotent).
  void mark_explored(VertexId v);

  /// Number of live vertices / edges (the Figure 8 series).
  [[nodiscard]] std::size_t live_vertices() const { return live_vertices_; }
  [[nodiscard]] std::size_t live_edges() const { return live_edges_; }
  [[nodiscard]] std::size_t vertex_capacity() const {
    return vertices_.size();
  }

  /// Count of incident edge-ends of v (a model self-loop counts twice).
  [[nodiscard]] int degree(VertexId v) const;

  /// True when the merge list is empty (no pending deductions).
  [[nodiscard]] bool stabilized() const { return merge_queue_.empty(); }

  /// Exhaustive internal-consistency check (test hardening): every live
  /// edge is listed in exactly the slots it claims on live vertices, dead
  /// vertices hold no slots, alias chains terminate at self-rooted
  /// entries, and the live counters match reality. Throws CheckFailure on
  /// any violation.
  void validate() const;

  /// Extracts the mapped network as a Topology: one node per live vertex,
  /// per-vertex slot indices normalized so the lowest used index lands on
  /// port 0. Requires a stabilized graph; throws CheckFailure if any slot
  /// still holds conflicting edges (evidence of an incomplete merge).
  [[nodiscard]] topo::Topology extract() const;

 private:
  struct MergeRequest {
    VertexId keep;
    VertexId gone;
    int shift;  // gone's index i corresponds to keep's index i + shift
  };

  void schedule_slot_merges(VertexId v, int slot_index);
  void execute_merge(const MergeRequest& request);
  void kill_edge(EdgeId e);

  std::vector<Vertex> vertices_;
  std::vector<Edge> edges_;
  /// Union-find alias with accumulated shift; parent == self when canonical.
  /// Mutable: resolve() path-compresses, which does not change observable
  /// state.
  mutable std::vector<Resolved> alias_;
  std::unordered_map<std::string, VertexId> host_registry_;
  std::vector<MergeRequest> merge_queue_;
  std::size_t live_vertices_ = 0;
  std::size_t live_edges_ = 0;
};

}  // namespace sanmap::mapper
