// Regional mapping: wall-clock, probe load, and boundary work vs region
// count (DESIGN.md §13).
//
// Each fabric is mapped once monolithically, then by regions: the region
// planner (mapper::partition_fabric, greedy auto:k seeds anchored at the
// canonical mapper host) feeds mapper::ParallelMapper with k in
// {1, 2, 4, 8}. Both sides use the same outstanding-probe window, so the
// speedup is the regions' alone, not the pipeline's. For every run the
// bench records the simulated wall-clock (max over the region sessions plus
// the merge charge), the total probe load across regions, and the boundary
// work (switches the planner put on region boundaries, cross-region fusions
// the merge performed).
//
// Two fabrics:
//  * banded — mega_fat_tree with 266 leaves (500 switches). Its upper
//    levels form a band, so the diameter is long and a region's depth
//    really bounds its exploration. This row is gated.
//  * multi-pod — 8 pods joined by a host-free spine. Every region's ball
//    still covers nearly the whole fabric, so regions cost probes and save
//    no time. Reported, not gated.
//
// Self-gating acceptance criteria — any miss exits nonzero so CI can run
// this as a gate:
//  * every merged map is Theorem-1 isomorphic to the monolithic map;
//  * on the banded fabric, 4 regions beat the monolithic wall-clock by
//    >= 2x.
// Certification is not measured here: a published map is certified by the
// service's publish gate like any other.
//
// Results are emitted to BENCH_regional.json via JsonReport.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "mapper/parallel_mapper.hpp"

namespace {

using namespace sanmap;

/// Leaf switches of the banded fabric: 266 gives the 500-switch tree the
/// >= 2x gate is calibrated to.
constexpr int kBandedLeaves = 266;

/// Sweeps the region counts over one fabric; returns false on any
/// isomorphism failure and stores the 4-region speedup.
bool sweep(const std::string& label, const topo::Topology& fabric,
           const std::vector<int>& counts, int overlap,
           bench::JsonReport& report, double& speedup_at_4) {
  std::cout << label << ": " << fabric.num_hosts() << " hosts, "
            << fabric.num_switches() << " switches, " << fabric.num_wires()
            << " links\n";
  mapper::MapperConfig mono_config;
  mono_config.pipeline_window = mapper::kRegionalPipelineWindow;
  const mapper::MapResult mono = bench::run_berkeley(
      fabric, simnet::CollisionModel::kCutThrough, mono_config);
  bool ok = bench::verify(fabric, mono) == "ok";
  std::cout << "monolithic (window " << mapper::kRegionalPipelineWindow
            << "): " << mono.probes.total() << " probes, " << mono.elapsed.str()
            << (ok ? "" : " (WRONG MAP)") << "\n";
  report.add(label + ".monolithic", "wallclock_ms", mono.elapsed.to_ms());
  report.add(label + ".monolithic", "probes",
             static_cast<double>(mono.probes.total()));

  common::Table table({"regions", "wall-clock", "speedup", "probes",
                       "boundary sw", "fusions", "iso"});
  for (const int k : counts) {
    mapper::FederationSpec spec;
    spec.auto_regions = k;
    spec.anchor_host = fabric.name(bench::mapper_host_of(fabric));
    mapper::PartitionOptions options;
    options.overlap_margin = overlap;
    const mapper::RegionPlan plan =
        mapper::partition_fabric(fabric, spec, options);
    simnet::Network net(fabric);
    const mapper::ParallelMapResult result =
        mapper::ParallelMapper(net, mapper::regional_config(plan)).run();

    const bool iso = topo::isomorphic(result.map, mono.map);
    const double speedup = result.elapsed.to_ms() > 0.0
                               ? mono.elapsed.to_ms() / result.elapsed.to_ms()
                               : 0.0;
    if (k == 4) {
      speedup_at_4 = speedup;
    }
    table.add_row({std::to_string(k), result.elapsed.str(),
                   common::fmt(speedup, 2) + "x",
                   std::to_string(result.total_probes),
                   std::to_string(plan.boundary_switches),
                   std::to_string(result.merge.merges),
                   iso ? "ok" : "WRONG"});
    const std::string name = label + ".regions" + std::to_string(k);
    report.add(name, "wallclock_ms", result.elapsed.to_ms());
    report.add(name, "speedup", speedup);
    report.add(name, "probes", static_cast<double>(result.total_probes));
    report.add(name, "boundary_switches",
               static_cast<double>(plan.boundary_switches));
    report.add(name, "boundary_conflicts",
               static_cast<double>(result.merge.merges));
    report.add(name, "iso_to_monolithic", iso ? 1 : 0);
    if (!iso) {
      std::cerr << label << " regions=" << k
                << ": merged map is not isomorphic to the monolithic map\n";
      ok = false;
    }
  }
  std::cout << table << "\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("pods", "8", "multi-pod fabric size");
  flags.define("overlap", "2", "region overlap margin");
  flags.define("smoke", "false", "CI mode: sweep only 1 and 4 regions");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const std::vector<int> counts = flags.get_bool("smoke")
                                      ? std::vector<int>{1, 4}
                                      : std::vector<int>{1, 2, 4, 8};
  const int overlap = static_cast<int>(flags.get_int("overlap"));
  bench::JsonReport report("regional");

  topo::MegaFatTreeOptions banded;
  banded.leaf_switches = kBandedLeaves;
  double banded_at_4 = 0.0;
  bool ok = sweep("banded", topo::mega_fat_tree(banded), counts, overlap,
                  report, banded_at_4);

  // 8 pods forces pod_roots = 1 (the spine's 8-port budget); each pod root
  // still reaches every spine, so no pod hangs off a bridge and the spine
  // layer survives coring.
  topo::MultiPodOptions shape;
  shape.pods = static_cast<int>(flags.get_int("pods"));
  shape.leaf_switches_per_pod = 4;
  shape.pod_roots = 1;
  shape.hosts_per_leaf = 2;
  shape.uplinks = 1;
  shape.spines = 2;
  double pods_at_4 = 0.0;
  ok = sweep("multi-pod", topo::multi_pod(shape), counts, overlap, report,
             pods_at_4) &&
       ok;

  report.add("gate", "banded_speedup_at_4", banded_at_4);
  report.add("gate", "multi_pod_speedup_at_4", pods_at_4);
  report.write();

  if (banded_at_4 < 2.0) {
    std::cerr << "banded speedup at 4 regions " << banded_at_4
              << "x is below the 2x acceptance bar\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "regional benchmark gates FAILED\n";
    return 1;
  }
  std::cout << "all region counts isomorphic to monolithic; banded 4-region "
               "speedup "
            << common::fmt(banded_at_4, 2) << "x (multi-pod "
            << common::fmt(pods_at_4, 2) << "x, ungated)\n";
  return 0;
}
