// The fabrics the workloads run on.
#pragma once

#include <cstdint>

#include "topology/topology.hpp"

namespace perfbench {

/// A k-ary n-tree (Petrini & Vanneschi) of 2k-port switches: n levels of
/// k^(n-1) switches, k hosts on each leaf switch, so k^n hosts in all.
/// Switch <w, l> (w an (n-1)-digit base-k word) links to <w', l+1> when w
/// and w' differ at most in digit l. Every switch spends k ports down and,
/// below the top level, k ports up; the top level leaves its up ports free.
/// Host-to-host diameter is 2n wires.
///
/// `port_seed` relabels each switch's ports by a seeded permutation of
/// 0..2k-1 (0 keeps down ports at 0..k-1 and up ports at k..2k-1). The
/// relabelled fabrics are isomorphic, but the mapper's turn order differs,
/// so the seed changes the probe sequence without changing the network.
/// Hosts are named "h<index>", switches "s<level>.<word>". The same
/// arguments always give the same fabric.
sanmap::topo::Topology k_ary_n_tree(int k, int n, std::uint64_t port_seed);

/// The banded four-level tapered fat tree bench_scaling maps at
/// `total_switches` (about that many switches; its upper levels form a band,
/// so its diameter grows with its size).
sanmap::topo::Topology banded_fat_tree(int total_switches);

}  // namespace perfbench
