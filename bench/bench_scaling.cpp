// Megafabric scaling: probes and wall-clock vs switch count m
// (DESIGN.md §14).
//
// Sweeps the Berkeley mapper over generated megafabrics — tapered
// multi-level fat trees (the primary O(m) family) plus dragonfly-ish
// irregular meshes for shape variety — and records, per size, the probe
// count, the wall-clock mapping time, probes/m, and the simulator's hop
// walk: wire traversals per probe and wall ns per wire traversal. The
// banded fat trees' diameter grows with m, so their total hops grow as
// O(m^2) even though probes/m is flat; the two hop columns show that cost
// (report-only, no gate). Sessions use the
// analytic generous_search_depth (3W + 3): depth overshoot sends no extra
// probes, and the exact min-cost-flow Q / all-pairs-BFS D are quadratic-plus
// at 5k switches.
//
// Self-gating (nonzero exit on violation, so CI runs it as an acceptance
// gate):
//
//  * probes/m across the fat-tree sweep stays flat within 15% of the
//    smallest size — mapping is O(m) in probes, not just asymptotically;
//  * every mapped core carries exactly the fabric's switch/host/wire counts
//    (these generators core to themselves, so Theorem 1 demands the whole
//    fabric back);
//  * the 5k-switch fat tree maps in under 10 s of wall clock (full mode).
//
// --smoke shrinks the sweep (~100-400 switches) for CI; the flatness and
// exact-count gates still apply. Results land in BENCH_scaling.json.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "topology/isomorphism.hpp"

namespace {

using namespace sanmap;

struct Sample {
  std::string name;
  std::size_t switches = 0;
  std::uint64_t probes = 0;
  std::uint64_t traversals = 0;
  double wall_ms = 0.0;
  bool counts_ok = false;
};

/// Widths 8L/8, 8L/16, ... — a leaf count of roughly 8m/15 yields a
/// four-level tree of about m switches total.
topo::Topology fat_tree_of(int total_switches) {
  topo::MegaFatTreeOptions options;
  options.leaf_switches = std::max(2, total_switches * 8 / 15);
  return topo::mega_fat_tree(options);
}

Sample map_fabric(const std::string& name, const topo::Topology& network,
                  bool check_isomorphic) {
  Sample s;
  s.name = name;
  s.switches = network.num_switches();
  const topo::NodeId mapper_host = network.hosts().front();
  const int depth = topo::generous_search_depth(network);
  const auto start = std::chrono::steady_clock::now();
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  mapper::MapperConfig config;
  config.search_depth = depth;
  const mapper::MapResult result = mapper::BerkeleyMapper(engine, config).run();
  const auto stop = std::chrono::steady_clock::now();
  s.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  s.probes = result.probes.total();
  s.traversals = net.counters().wire_traversals;
  // These fabrics have no host-free region behind a switch-bridge, so the
  // mapped core must be the whole network. Exact counts are a cheap strong
  // check at 5k switches; full isomorphism is reserved for the smallest size.
  s.counts_ok = result.map.num_switches() == network.num_switches() &&
                result.map.num_hosts() == network.num_hosts() &&
                result.map.num_wires() == network.num_wires();
  if (check_isomorphic && s.counts_ok) {
    s.counts_ok = topo::isomorphic(result.map, topo::core(network));
  }
  return s;
}

double per(double value, std::uint64_t count) {
  return count == 0 ? 0.0 : value / static_cast<double>(count);
}

/// One table row and the matching BENCH_scaling.json entries.
void record(const Sample& s, common::Table& table,
            bench::JsonReport& report) {
  const double ppm = per(static_cast<double>(s.probes), s.switches);
  const double hops_per_probe =
      per(static_cast<double>(s.traversals), s.probes);
  const double ns_per_hop = per(s.wall_ms * 1e6, s.traversals);
  table.add_row({s.name, std::to_string(s.switches), std::to_string(s.probes),
                 common::fmt(ppm, 2), common::fmt(hops_per_probe, 1),
                 common::fmt(s.wall_ms, 1), common::fmt(ns_per_hop, 1),
                 s.counts_ok ? "ok" : "WRONG"});
  report.add(s.name, "switches", static_cast<double>(s.switches));
  report.add(s.name, "probes", static_cast<double>(s.probes));
  report.add(s.name, "probes_per_switch", ppm);
  report.add(s.name, "traversals_per_probe", hops_per_probe);
  report.add(s.name, "wall_ms", s.wall_ms);
  report.add(s.name, "wall_ns_per_traversal", ns_per_hop);
  report.add(s.name, "counts_ok", s.counts_ok ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("smoke", "false", "CI mode: shrink the sweep to ~100-400 "
                                 "switches and skip the 5k gate");
  flags.define("tolerance", "0.15",
               "allowed probes/m drift across the fat-tree sweep");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");
  const double tolerance = flags.get_double("tolerance");

  const std::vector<int> fat_tree_sizes =
      smoke ? std::vector<int>{100, 200, 400}
            : std::vector<int>{500, 1000, 2000, 4000};

  std::cout << "=== Megafabric scaling: probes and wall clock vs switches "
               "===\n";
  common::Table table({"fabric", "switches", "probes", "probes/m",
                       "hops/probe", "wall (ms)", "ns/hop", "counts"});
  bench::JsonReport report("scaling");
  bool ok = true;

  std::vector<Sample> sweep;
  for (std::size_t i = 0; i < fat_tree_sizes.size(); ++i) {
    const topo::Topology network = fat_tree_of(fat_tree_sizes[i]);
    const std::string name =
        "fat-tree/" + std::to_string(network.num_switches());
    sweep.push_back(map_fabric(name, network, i == 0));
  }
  // Dragonfly-ish shape variety: reported, but the flatness gate applies to
  // the fat-tree family (each family has its own probes/m constant).
  {
    topo::DragonflyishOptions options;
    options.groups = smoke ? 8 : 32;
    common::Rng rng(1);
    const topo::Topology network = topo::dragonfly_ish(options, rng);
    sweep.push_back(map_fabric(
        "dragonfly/" + std::to_string(network.num_switches()), network, true));
  }

  const double ppm0 = per(static_cast<double>(sweep.front().probes),
                          sweep.front().switches);
  for (const Sample& s : sweep) {
    const double ppm = per(static_cast<double>(s.probes), s.switches);
    const bool in_family = s.name.rfind("fat-tree/", 0) == 0;
    const double drift = std::abs(ppm - ppm0) / ppm0;
    if (in_family && drift > tolerance) {
      std::cerr << s.name << ": probes/m " << ppm << " drifts " << drift * 100
                << "% from the smallest size (" << ppm0 << ") — over the "
                << tolerance * 100 << "% bar\n";
      ok = false;
    }
    if (!s.counts_ok) {
      std::cerr << s.name << ": mapped core does not match the fabric\n";
      ok = false;
    }
    record(s, table, report);
  }

  if (!smoke) {
    // The headline gate: a 5k-switch fabric in single-digit seconds.
    const topo::Topology network = fat_tree_of(5000);
    const Sample s = map_fabric(
        "fat-tree/" + std::to_string(network.num_switches()), network, false);
    const double wall_s = s.wall_ms / 1000.0;
    record(s, table, report);
    if (!s.counts_ok) {
      std::cerr << s.name << ": mapped core does not match the fabric\n";
      ok = false;
    }
    if (wall_s >= 10.0) {
      std::cerr << s.name << ": " << wall_s
                << " s wall clock — over the 10 s bar\n";
      ok = false;
    }
  }

  std::cout << table << "\n";
  report.write();
  if (!ok) {
    std::cerr << "scaling gates FAILED\n";
    return 1;
  }
  std::cout << "probes/m flat within " << tolerance * 100
            << "%, cores exact" << (smoke ? " (smoke)" : ", 5k under 10 s")
            << "\n";
  return 0;
}
