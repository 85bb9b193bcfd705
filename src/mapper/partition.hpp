// Region planning for regional mapping (ParallelMapper; QSPN/Netsukuku is
// the distributed-discovery exemplar).
//
// A region spec (`--federate`) names one mapper seed host per region —
// explicitly ("podA=P0.h0,podB=P1.h0") or by count ("auto:4", a greedy
// k-center sweep over the anchor host's component). The partitioner then grows regions
// from the seeds by multi-source BFS over the fabric: every switch of the
// seeds' component is assigned to its nearest seed (ties to the lower
// region index, so plans are deterministic), and every host follows its
// switch.
//
// Each region also receives a probe depth for its local mapper. The depth
// must cover more than the region itself: a depth-bounded Berkeley session
// cores its ball, so an assigned switch whose host anchor lies outside the
// ball would be shed as separated — and merge_partial_maps can only fuse
// switches that at least two regions observed with shared host evidence.
// The planner therefore charges, per assigned switch, the distance from the
// seed plus the switch's own distance to its nearest host, plus a
// configurable overlap margin — deliberately overshooting into neighbour
// territory (overshoot is extra probes; undershoot is a hole in the merged
// map).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace sanmap::mapper {

/// One region request: a mapper seed host, with an optional display name.
struct RegionSpec {
  std::string name;         // defaults to "r<index>" when empty
  std::string mapper_host;  // seed host name; must exist in the fabric
};

/// A parsed `--federate` spec.
struct FederationSpec {
  /// Explicit mode: one entry per region. Empty means auto mode.
  std::vector<RegionSpec> regions;
  /// Auto mode: grow this many regions from greedily spread seed hosts.
  int auto_regions = 0;
  /// Auto mode: the component anchor and first seed. Empty picks the
  /// fabric's first host.
  std::string anchor_host;

  [[nodiscard]] bool auto_mode() const { return regions.empty(); }
};

/// Parses "auto:<k>" or a comma-separated seed list "[name=]host,...".
/// Throws std::runtime_error on malformed input.
FederationSpec parse_federation_spec(const std::string& text);

/// One planned region.
struct Region {
  std::string name;
  topo::NodeId mapper = topo::kInvalidNode;  // seed host (fabric id)
  std::vector<topo::NodeId> switches;        // assigned switches (fabric ids)
  std::vector<topo::NodeId> hosts;           // assigned hosts (fabric ids)
  /// Probe-string depth for the region's local mapper (covers the region
  /// plus the overlap margin).
  int depth = 1;
};

struct RegionPlan {
  std::vector<Region> regions;
  /// Switches with a neighbour assigned to a different region — the set
  /// merge_partial_maps must reconcile.
  std::size_t boundary_switches = 0;
  /// Switches of the seed component left unassigned (never happens for a
  /// connected component; kept as a self-check counter).
  std::size_t unassigned_switches = 0;
};

struct PartitionOptions {
  /// Extra probe depth beyond the per-switch coverage charge: how far each
  /// region's ball reaches into its neighbours. Raising it buys merge
  /// evidence with probes.
  int overlap_margin = 2;
};

/// Plans regions over `fabric` per `spec`. All seeds must be live hosts of
/// one connected component; auto mode clamps the region count to the
/// component's host count. Throws std::runtime_error on an unsatisfiable
/// spec (unknown host, seeds in different components, no regions).
RegionPlan partition_fabric(const topo::Topology& fabric,
                            const FederationSpec& spec,
                            const PartitionOptions& options = {});

}  // namespace sanmap::mapper
