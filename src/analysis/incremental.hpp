// Incremental sanlint — dirty-region re-analysis with certificate deltas.
//
// AnalysisState caches everything analyze() derives from a (map, routes)
// pair — per-region fabric state, per-route structure verdicts, the
// UP*/DOWN* labels and per-route legality entries, the refcounted
// channel-dependency graph behind the DeadlockCertificate, and per-source
// BFS distance caches for the quality lints — and repairs those caches
// under churn instead of recomputing them. reanalyze() diffs the new
// (map, routes) pair against the cached baseline, re-runs lints only on
// the dirty closure, repairs the dependency graph's topological order
// locally (Pearce-Kelly window repair, full Kahn rebuild past a
// threshold), and emits a CertificateDelta alongside the ordinary
// AnalysisResult.
//
// The contract is exactness, not approximation: the diagnostics and
// verdicts reanalyze() produces are byte-identical to a from-scratch
// analyze() on the same inputs (the incremental-lint-equiv fuzz oracle and
// bench_analysis both enforce zero divergence). Whenever a corner would
// make local repair unsound — a structurally broken route, a dependency
// cycle, a root change, a diff too large to be worth localizing — the
// engine escalates to the full analyzer and re-primes, mirroring the
// localize→splice→validate shape of the incremental mapper.
//
// DeltaChecker is the independent side of the bargain: it mirrors the
// baseline with its own state and re-proves every delta — re-deriving the
// dirty sets, re-classifying every updated legality entry, re-deriving the
// structural dependency-edge changes from the raw routes, and validating
// the full topological order — without ever trusting the builder's caches.
// The MapCatalog publish gate rejects any delta the checker refuses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "analysis/lints.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "topology/algorithms.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

using RouteKey = std::pair<topo::NodeId, topo::NodeId>;

/// Why a reanalyze() call abandoned the dirty-region fast path.
enum class EscalationReason : std::uint8_t {
  kNone = 0,        ///< served incrementally
  kFirstRun,        ///< no primed baseline yet
  kManualReset,     ///< caller asked for a full re-prime (reset())
  kRootChanged,     ///< table root differs from baseline or is not a live
                    ///< switch (full path owns the SL106 diagnostic)
  kDiffTooLarge,    ///< dirty closure past the escalation threshold
  kStructureFinding,///< a route in the dirty closure is structurally broken
  kCycle,           ///< dependency-edge insert closed a cycle
  kCheckerRejected, ///< a DeltaChecker refused the previous delta
};

const char* to_string(EscalationReason reason);

/// The evidence that one reanalyze() step is sound, relative to the
/// previously proven revision. An independent DeltaChecker re-proves the
/// delta in O(changed) without re-running the analysis.
struct CertificateDelta {
  /// Monotonic revision counters: this delta advances the state from
  /// base_revision to revision.
  std::uint64_t base_revision = 0;
  std::uint64_t revision = 0;

  /// True when the step fell back to the full analyzer (the AnalysisResult
  /// then stands on its own and the checker re-proves the full
  /// certificates instead of the delta).
  bool escalated_full = false;
  EscalationReason reason = EscalationReason::kNone;

  /// Map-side dirty closure: wires/nodes whose liveness flipped or that
  /// appeared since the baseline. Sorted ascending.
  std::vector<topo::WireId> dirty_wires;
  std::vector<topo::NodeId> dirty_nodes;

  /// Route-table diff: keys inserted or value-changed, and keys removed.
  /// Sorted ascending.
  std::vector<RouteKey> changed_routes;
  std::vector<RouteKey> removed_routes;

  /// UP*/DOWN* label changes, (node, new label), sorted by node. Slots past
  /// the baseline capacity diff against an implicit 0.
  std::vector<std::pair<topo::NodeId, int>> label_updates;

  /// Re-classified legality entries: exactly the changed routes plus every
  /// surviving route that touches a label-changed node, in key order.
  std::vector<RouteLegality> legality_updates;

  /// Structural dependency-edge changes (refcount 0↔1 crossings), as
  /// (holding channel, requested channel) pairs, sorted ascending.
  std::vector<std::pair<routing::Channel, routing::Channel>> inserted_edges;
  std::vector<std::pair<routing::Channel, routing::Channel>> removed_edges;

  /// True when local Pearce-Kelly repair overflowed its window and the
  /// topological order was rebuilt from scratch (Kahn, ascending ids).
  bool order_rebuilt = false;

  /// Total entities this delta names — the "O(changed)" the checker pays.
  [[nodiscard]] std::size_t touched() const {
    return dirty_wires.size() + dirty_nodes.size() + changed_routes.size() +
           removed_routes.size() + label_updates.size() +
           legality_updates.size() + inserted_edges.size() +
           removed_edges.size();
  }
};

struct IncrementalStats {
  std::uint64_t reanalyses = 0;      ///< reanalyze() calls
  std::uint64_t fast_path = 0;       ///< served from the dirty region
  std::uint64_t escalated_full = 0;  ///< fell back to full analyze()
  std::uint64_t order_repairs = 0;   ///< local Pearce-Kelly repairs
  std::uint64_t order_rebuilds = 0;  ///< full Kahn rebuilds past the window
};

struct AnalysisStateOptions {
  AnalyzerOptions analyzer;
  /// Escalate when dirty wires+nodes exceed this fraction of the live
  /// fabric (but never below min_dirty entities — small fabrics always
  /// qualify for the fast path).
  double dirty_fraction = 0.125;
  std::size_t min_dirty = 64;
  /// Escalate when changed+removed routes exceed this fraction of the
  /// table (snapshot compaction shifts every id past a removal; a diff
  /// that large is cheaper to re-analyze than to localize).
  double route_fraction = 0.5;
  /// Pearce-Kelly affected-region cap; past it the order is rebuilt.
  std::size_t repair_window = 256;
};

/// The incremental analysis engine. Not thread-safe; the MapCatalog holds
/// one under its writer mutex.
class AnalysisState {
 public:
  struct Result {
    AnalysisResult analysis;
    CertificateDelta delta;
  };

  explicit AnalysisState(AnalysisStateOptions options = {});

  /// Full analysis + baseline (re)prime. Always escalates. The reason is
  /// recorded in the delta (gates pass kCheckerRejected when a DeltaChecker
  /// refused the previous step).
  Result reset(const topo::Topology& map, const routing::RoutingResult& routes,
               EscalationReason reason = EscalationReason::kManualReset);

  /// Incremental re-analysis against the cached baseline. Escalates (and
  /// re-primes) whenever localization would be unsound; either way the
  /// returned AnalysisResult matches a from-scratch analyze() exactly.
  Result reanalyze(const topo::Topology& map,
                   const routing::RoutingResult& routes);

  /// True when a sound baseline is cached (the next reanalyze may take the
  /// fast path).
  [[nodiscard]] bool primed() const { return primed_; }
  [[nodiscard]] const IncrementalStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

 private:
  struct NodeFp {
    bool alive = false;
    bool host = false;
  };
  struct WireFp {
    bool alive = false;
    /// Endpoints, recorded the first time the wire is seen alive (wire ids
    /// are append-only and endpoints immutable, so this never goes stale).
    topo::NodeId a = topo::kInvalidNode;
    topo::NodeId b = topo::kInvalidNode;
  };

  Result full_path(const topo::Topology& map,
                   const routing::RoutingResult& routes,
                   EscalationReason reason);
  void prime(const topo::Topology& map, const routing::RoutingResult& routes,
             const AnalysisResult& full);
  void clear_baseline();

  /// Dependency-order maintenance. Returns false when the insert closes a
  /// cycle (caller escalates).
  bool insert_order_edge(std::size_t from, std::size_t to,
                         CertificateDelta& delta);
  void remove_order_edge(std::size_t from, std::size_t to);
  bool rebuild_order();
  void ensure_rank(std::size_t channel);
  void drop_if_isolated(std::size_t channel);

  void index_route(const RouteKey& key, const routing::HostRoute& route);
  void unindex_route(const RouteKey& key, const routing::HostRoute& route);

  AnalysisStateOptions options_;
  IncrementalStats stats_;
  std::uint64_t revision_ = 0;
  bool primed_ = false;

  // -- mirrored baseline ----------------------------------------------------
  topo::NodeId root_ = topo::kInvalidNode;
  std::vector<NodeFp> node_fp_;
  std::vector<WireFp> wire_fp_;
  /// Live wire-end count per node and the ascending isolated set (SL307).
  std::vector<int> degree_;
  std::set<topo::NodeId> isolated_;
  int components_ = 0;
  std::map<RouteKey, routing::HostRoute> routes_;
  std::map<topo::NodeId, std::set<RouteKey>> node_routes_;
  std::map<topo::WireId, std::set<RouteKey>> wire_routes_;
  std::vector<int> labels_;
  std::map<RouteKey, RouteLegality> legal_;
  std::size_t illegal_ = 0;
  /// Per-route channel-id path (so dead wires never need dereferencing).
  std::map<RouteKey, std::vector<std::size_t>> chan_path_;
  /// Dependency multiset: occurrences per (from, to) channel-id pair;
  /// structural edges are the keys with positive count.
  std::map<std::pair<std::size_t, std::size_t>, long> edge_ref_;
  std::map<std::size_t, std::set<std::size_t>> out_;
  std::map<std::size_t, std::set<std::size_t>> in_;
  std::size_t dependencies_ = 0;
  /// Maintained topological order as sparse ranks (Pearce-Kelly).
  std::map<std::size_t, std::uint64_t> rank_of_;
  std::map<std::uint64_t, std::size_t> chan_at_rank_;
  /// Per-source incremental BFS for the SL401 distance oracle.
  std::map<topo::NodeId, topo::DynamicBfs> bfs_;
  /// Root-rooted incremental BFS behind the legality labels (rebuilding the
  /// labels constructs a whole UpDownOrientation — an O(m) connectivity
  /// check plus BFS plus an allocation-heavy relabel fixpoint, every epoch).
  std::optional<topo::DynamicBfs> root_bfs_;
  /// SL403's parallel-cable index, maintained across epochs (rebuilding it
  /// is a full wire scan — the one O(m) term the fast path cannot afford).
  ParallelCableGroups parallel_;
  /// SL403's traffic oracle, maintained across epochs (rebuilding it walks
  /// every route — O(R·L), and L grows with fabric diameter). Entries that
  /// drain to zero are erased so the content matches a from-scratch build.
  ChannelLoads loads_;
};

/// Independent re-prover for certificate deltas. Keeps its own mirror of
/// the proven baseline; check() advances the mirror only when the delta
/// holds. Any rejection poisons the mirror — the caller must escalate
/// (AnalysisState::reset) and present the escalated delta, which reseeds.
class DeltaChecker {
 public:
  /// Re-proves `result`+`delta` against the raw (map, routes). Escalated
  /// deltas are proved with the from-scratch certificate checkers
  /// (check_legality / check_deadlock) and reseed the mirror; incremental
  /// deltas are proved piecewise in O(changed + order). Appends one line
  /// per discrepancy to `why` when non-null.
  bool check(const topo::Topology& map, const routing::RoutingResult& routes,
             const AnalysisResult& result, const CertificateDelta& delta,
             std::vector<std::string>* why = nullptr);

  [[nodiscard]] bool seeded() const { return seeded_; }
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

 private:
  void seed(const topo::Topology& map, const routing::RoutingResult& routes,
            const AnalysisResult& full);

  bool seeded_ = false;
  std::uint64_t revision_ = 0;
  topo::NodeId root_ = topo::kInvalidNode;
  std::vector<char> node_alive_;
  std::vector<char> wire_alive_;
  std::map<RouteKey, routing::HostRoute> routes_;
  std::map<topo::NodeId, std::set<RouteKey>> node_routes_;
  std::vector<int> labels_;
  std::map<RouteKey, RouteLegality> legal_;
  std::map<RouteKey, std::vector<std::size_t>> chan_path_;
  std::map<std::pair<std::size_t, std::size_t>, long> edge_ref_;
  /// Incident structural-edge count per channel (participation tracking).
  std::map<std::size_t, long> chan_edges_;
  std::size_t dependencies_ = 0;
};

}  // namespace sanmap::analysis
