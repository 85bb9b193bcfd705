// Topology generators.
//
// The NOW subcluster generators reproduce the component inventory of the
// paper's Figure 3 exactly:
//
//   subcluster  interfaces  switches  links
//   A           34          13        64
//   B           30          14        65
//   C           36          13        64
//
// Each subcluster is an incomplete fat tree of 8-port switches in three
// levels (leaf / middle / root) with the irregularities the paper calls out:
// subcluster C's middle leaf switch has only two uplinks instead of three
// ("the third was faulty and removed, but never replaced"), every level-2/3
// switch has unused ports, and a distinguished utility host hangs directly
// off a root switch.
//
// now_cluster() composes A, B and C with root-to-root trunk cables into the
// 100-node system of Figure 5. Note: the paper's headline of 193 links
// equals the Fig. 3 subcluster sum exactly, which implies the authors
// attributed trunk cabling to subcluster budgets; we keep each standalone
// subcluster at its published count and add the trunks explicitly (4 cables,
// so the composed system has 197 links — within 2% and shape-preserving;
// see EXPERIMENTS.md).
//
// The remaining generators build the classic interconnects of §6 plus
// random irregular networks for property tests.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "topology/topology.hpp"

namespace sanmap::topo {

/// Which NOW subcluster to build.
enum class Subcluster { kA, kB, kC };

/// One NOW subcluster per the Fig. 3 inventory. `host_prefix` prefixes host
/// names so composed clusters keep names unique (hosts are "A.h0", ...;
/// the utility host is "<prefix>.util").
Topology now_subcluster(Subcluster which, const std::string& host_prefix);

/// Returns the published Fig. 3 inventory for a subcluster:
/// {interfaces, switches, links}.
struct Inventory {
  std::size_t interfaces = 0;
  std::size_t switches = 0;
  std::size_t links = 0;
};
Inventory now_inventory(Subcluster which);

/// Options for composing the full NOW.
struct NowOptions {
  bool include_a = true;
  bool include_b = true;
  bool include_c = true;
  /// Root-to-root trunk cables between each adjacent pair of included
  /// subclusters (C–A, A–B, C–B as available).
  int trunks_per_pair = 2;
  /// Extra shared root switches joining all subcluster roots ("additional
  /// switches can be added to increase the number of roots", Fig. 5).
  int extra_roots = 0;
};

/// The composed NOW cluster. With defaults: 100 interfaces, 40 switches.
Topology now_cluster(const NowOptions& options = {});

/// The C, C+A, C+A+B growth sequence used by the paper's evaluation tables.
enum class NowSystem { kC, kCA, kCAB };
Topology now_system(NowSystem system);
const char* to_string(NowSystem system);

/// d-dimensional hypercube of switches (d <= 7), with `hosts_per_switch`
/// hosts on each switch (hosts_per_switch <= 8 - d).
Topology hypercube(int dim, int hosts_per_switch);

/// w x h mesh of switches; each switch gets `hosts_per_switch` hosts
/// (fabric uses up to 4 ports, so hosts_per_switch <= 4).
Topology mesh(int width, int height, int hosts_per_switch);

/// w x h torus (wraparound mesh); same port budget as mesh. Width and
/// height must be >= 3 so wrap links are distinct from mesh links.
Topology torus(int width, int height, int hosts_per_switch);

/// Ring of `n` switches with `hosts_per_switch` hosts each (n >= 3).
Topology ring(int num_switches, int hosts_per_switch);

/// One central switch with up to 7 leaf switches, hosts on the leaves;
/// a small, easily hand-checkable tree.
Topology star(int leaves, int hosts_per_leaf);

/// A k-ary fat-tree-like topology: `levels` levels of switches, each leaf
/// switch carrying `hosts_per_leaf` hosts, each non-root switch with
/// `uplinks` links to the level above (spread round-robin).
struct FatTreeOptions {
  int levels = 3;
  int leaf_switches = 8;
  int switches_per_upper_level = 4;
  int hosts_per_leaf = 4;
  int uplinks = 2;
};
Topology fat_tree(const FatTreeOptions& options);

/// A multi-pod cluster: `pods` fig5-like pods (leaf switches carrying
/// hosts, uplinked to per-pod root switches) joined by a host-free spine
/// layer — the canonical fabric with real region boundaries (every
/// pod-root-to-spine wire crosses one). bench_regional reports region
/// counts over it, and the fuzz corpus carries one for regional-iso.
struct MultiPodOptions {
  int pods = 3;
  int leaf_switches_per_pod = 3;
  int pod_roots = 2;
  int hosts_per_leaf = 2;
  /// Leaf-to-pod-root links per leaf (windowed round-robin, like fat_tree).
  int uplinks = 2;
  /// Spine switches; with spine_uplinks == 0 every pod root links to every
  /// spine, so pods * pod_roots <= 8 and pod-root ports must fit
  /// leaf uplinks + spines.
  int spines = 2;
  /// 0 = the dense legacy wiring above. > 0 = each pod root links to this
  /// many consecutive spines (windowed round-robin over the global root
  /// order, with free-port fall-forward), lifting the 8-pod-root budget so
  /// multi-pod clusters scale to hundreds of pods. Needs >= 2 (or a single
  /// spine) so the spine layer stays connected and every spine keeps at
  /// least two root links (a singly-attached host-free spine would sit
  /// behind a switch-bridge and be shed by coring).
  int spine_uplinks = 0;
};
Topology multi_pod(const MultiPodOptions& options = {});

// -- megafabric generators (DESIGN.md §14) ----------------------------------
//
// Parameterized fabrics in the 1k–10k-switch range for the scaling gates.
// All three respect the 8-port budget and keep every host-free region
// multiply connected, so the full fabric survives coring and Theorem 1
// applies to the whole thing.

/// A tapered multi-level fat tree: level 0 has `leaf_switches` switches
/// (each carrying `hosts_per_leaf` hosts), and every level above shrinks by
/// `taper` (minimum width 2). Each non-top switch spreads `uplinks` links
/// over a consecutive window of the level above (fall-forward on full
/// ports), the same scheme as fat_tree, so the fabric is connected at every
/// size for uplinks >= 2.
struct MegaFatTreeOptions {
  int levels = 4;
  int leaf_switches = 512;
  /// Upper-level width divisor: level l+1 has ceil(width_l / taper)
  /// switches. taper * uplinks + uplinks <= 8 keeps mid-level ports legal.
  int taper = 2;
  int hosts_per_leaf = 2;
  int uplinks = 2;
};
Topology mega_fat_tree(const MegaFatTreeOptions& options);

/// A dragonfly-ish irregular mesh: `groups` local rings of
/// `switches_per_group` switches with `hosts_per_group` hosts spread over
/// each ring, a deterministic global ring joining the groups, and seeded
/// rewiring on top — `local_chords` random intra-group chords and
/// `global_extras` random inter-group links per group, each attached only
/// where free ports allow. The deterministic skeleton guarantees
/// connectivity for every seed; the seeded extras make distinct seeds
/// structurally distinct (the generators_test non-isomorphism property).
struct DragonflyishOptions {
  int groups = 16;
  int switches_per_group = 8;
  int hosts_per_group = 4;
  int local_chords = 2;
  int global_extras = 2;
};
Topology dragonfly_ish(const DragonflyishOptions& options, common::Rng& rng);

/// A safe analytic search depth (3 * wires + 3) for generated megafabrics.
/// A probe walk never repeats a directed wire, so Q <= 2 * wires and
/// D <= wires, giving Q + D + 1 <= 3 * wires + 1. The depth bound only caps
/// exploration — no probe is ever sent *because* the cap is generous — so
/// sessions at megafabric scale use this O(1) bound instead of the exact
/// min-cost-flow Q + all-pairs-BFS D, which are quadratic-plus at 5k
/// switches.
int generous_search_depth(const Topology& topo);

/// Random connected irregular network: `num_switches` switches in a random
/// spanning tree plus `extra_links` random extra switch-switch links, and
/// `num_hosts` hosts attached to random switches with free ports. All port
/// assignments are randomized — exercising non-contiguous port usage.
Topology random_irregular(int num_switches, int num_hosts, int extra_links,
                          common::Rng& rng);

/// A network with a guaranteed switch-bridge separating `tail_switches`
/// host-free switches from the main body — i.e. F is non-empty and the
/// mapper must produce N - F (Theorem 1).
Topology with_switch_tail(int body_switches, int body_hosts,
                          int tail_switches, common::Rng& rng);

}  // namespace sanmap::topo
