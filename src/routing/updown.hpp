// UP*/DOWN* edge orientation (§5.5).
//
// A switch as far away from all hosts as possible is chosen as the root of
// a breadth-first labeling; "up" edges point toward the root. Valid routes
// follow zero or more up edges then zero or more down edges — never a turn
// from a down edge onto an up edge — which breaks every channel-dependency
// cycle and hence deadlock (Glass & Ni's turn model; Dally & Seitz).
//
// Labels are (BFS distance, node id) pairs, totally ordered. A locally
// dominant switch — greater than every neighbor, so all its edges lead away
// from it and no route can transit it — is made useful by relabeling it
// below the minimum of its neighbors (§5.5), iterated to a fixpoint.
#pragma once

#include <optional>
#include <vector>

#include "topology/topology.hpp"

namespace sanmap::routing {

struct UpDownOptions {
  /// Hosts ignored when picking the natural root (the paper ignores the
  /// specially-designated utility host).
  std::vector<topo::NodeId> ignore_hosts;
  /// Root override; otherwise topo::switch_farthest_from_hosts picks it.
  std::optional<topo::NodeId> root;
  /// Apply the locally-dominant-switch relabeling fix.
  bool fix_dominant_switches = true;
};

/// The oriented network: per-wire up direction plus the labels behind it.
class UpDownOrientation {
 public:
  UpDownOrientation(const topo::Topology& topo, const UpDownOptions& options);

  [[nodiscard]] topo::NodeId root() const { return root_; }

  /// True when traversing `wire` out of `from` moves up (toward the root).
  [[nodiscard]] bool goes_up(topo::WireId wire, topo::NodeId from) const;

  /// The label used for ordering (distance component; after dominant-switch
  /// fixes it may be negative).
  [[nodiscard]] int label(topo::NodeId node) const;

  /// The full label array, indexed by NodeId. Unlike label(), never touches
  /// the internal topology pointer — which dangles once a RoutingResult is
  /// moved across snapshots — so readers that carry their own map (the
  /// certificate builders) use this.
  [[nodiscard]] const std::vector<int>& raw_labels() const { return labels_; }

  /// Number of dominant-switch relabelings that were applied.
  [[nodiscard]] int relabeled_switches() const { return relabeled_; }

  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }

 private:
  /// Total order: (label, id) lexicographic; smaller is nearer the root.
  [[nodiscard]] bool less(topo::NodeId a, topo::NodeId b) const;

  const topo::Topology* topo_;
  topo::NodeId root_;
  std::vector<int> labels_;
  int relabeled_ = 0;
};

}  // namespace sanmap::routing
