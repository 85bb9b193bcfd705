// Route optimizer gate: raw UP*/DOWN* (§5.5) against UP*/DOWN* followed by
// the RouteOptimizer, on the paper's NOW cluster (fig4, fig5) and the
// megafabric generators.
//
// §5.5 names the known UP*/DOWN* weaknesses — "increased congestion about
// the root" and strong topology dependence. The optimizer re-selects among
// the legal same-length alternatives (tied apexes, parallel cables); this
// bench quantifies what that buys: channel-load distributions (max/mean),
// root funneling, and path-length histograms.
//
// Self-gating (exit 1 on regression):
//  * both variants must certify (deadlock-free by the 3-color DFS and
//    order-compliant) on every bench topology AND on every corpus scenario;
//  * on every one of those fabrics the optimizer must never raise the max
//    channel load and never change a route's hop count;
//  * it must strictly cut the max channel load on fig4 and multi-pod, the
//    fabrics where it earns its place (full run 85 -> 78 and 88 -> 61,
//    --smoke 85 -> 78 and 39 -> 37).
//
// Flags: --smoke shrinks the megafabrics so CI finishes in seconds.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/optimizer.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;

/// Routes over the mapper-visible component, compacted — the same map a
/// scenario's mapper would hand the router.
topo::Topology routable_component(const topo::Topology& t) {
  topo::Topology local = t;
  std::vector<int> component;
  topo::components(local, component);
  const topo::NodeId anchor = local.hosts().front();
  for (const topo::NodeId n : local.nodes()) {
    if (component[n] != component[anchor]) {
      local.remove_node(n);
    }
  }
  return local.compacted();
}

struct Measured {
  routing::CongestionStats load;
  double mean_hops = 0.0;
  int max_hops = 0;
  /// hops -> route count.
  std::map<int, std::size_t> histogram;
  std::size_t dependencies = 0;
  bool certified = false;
};

Measured measure(const topo::Topology& t,
                 const routing::RoutingResult& routes) {
  Measured m;
  m.load = routing::channel_load(t, routes);
  m.mean_hops = routes.mean_hops();
  m.max_hops = routes.max_hops();
  for (const auto& [key, route] : routes.routes) {
    ++m.histogram[route.hops()];
  }
  const auto analysis = routing::analyze_routes(t, routes);
  m.dependencies = analysis.dependencies;
  m.certified = analysis.deadlock_free && routing::updown_compliant(routes);
  return m;
}

/// One fabric's raw and optimized tables, and whether the optimizer kept
/// the max channel load and every route's hop count.
struct Comparison {
  Measured raw;
  Measured opt;
  bool never_worse = false;
};

Comparison compare(const topo::Topology& t) {
  const routing::RoutingResult raw = routing::compute_updown_routes(t);
  routing::RoutingResult opt = raw;
  routing::optimize_routes(t, opt);
  Comparison c{measure(t, raw), measure(t, opt), false};
  bool hops_kept = raw.routes.size() == opt.routes.size();
  for (const auto& [key, route] : raw.routes) {
    const auto it = opt.routes.find(key);
    hops_kept = hops_kept && it != opt.routes.end() &&
                it->second.hops() == route.hops();
  }
  c.never_worse =
      hops_kept && c.opt.load.max_channel_load <= c.raw.load.max_channel_load;
  return c;
}

std::string histogram_str(const std::map<int, std::size_t>& h) {
  std::string out;
  for (const auto& [hops, count] : h) {
    if (!out.empty()) {
      out += " ";
    }
    out += std::to_string(hops) + ":" + std::to_string(count);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  std::cout << "=== routing: UP*/DOWN* raw vs through the RouteOptimizer ===\n";
  bench::JsonReport report("routing");

  struct Case {
    std::string name;
    topo::Topology network;
    /// The optimizer must strictly cut the max channel load here.
    bool must_cut;
  };
  std::vector<Case> cases;
  cases.push_back({"fig4-subcluster-C",
                   topo::now_subcluster(topo::Subcluster::kC, "C"), true});
  cases.push_back({"fig5-NOW-100", topo::now_cluster(), false});
  {
    topo::MegaFatTreeOptions mft;
    mft.leaf_switches = smoke ? 32 : 128;
    mft.hosts_per_leaf = 1;
    cases.push_back({"mega-fat-tree", topo::mega_fat_tree(mft), false});
    common::Rng rng(7);
    topo::DragonflyishOptions dfly;
    dfly.groups = smoke ? 4 : 8;
    dfly.switches_per_group = 4;
    dfly.hosts_per_group = 2;
    cases.push_back({"dragonfly-ish", topo::dragonfly_ish(dfly, rng), false});
    topo::MultiPodOptions pods;
    pods.pods = smoke ? 3 : 6;
    if (!smoke) {
      // Dense spine wiring caps pods * pod_roots at 8; window the spine
      // links instead so six pods fit.
      pods.spines = 4;
      pods.spine_uplinks = 2;
    }
    cases.push_back({"multi-pod", topo::multi_pod(pods), true});
  }

  common::Table table({"Topology", "variant", "max load", "mean load",
                       "root share", "mean hops", "max", "deps",
                       "certified"});
  std::string fig5_histograms;
  bool gates_ok = true;
  const auto fail = [&](const std::string& why) {
    std::cout << "GATE FAILURE: " << why << "\n";
    gates_ok = false;
  };
  for (const auto& c : cases) {
    const Comparison cmp = compare(c.network);
    const std::pair<std::string, const Measured&> rows[] = {
        {"updown", cmp.raw}, {"updown+opt", cmp.opt}};
    for (const auto& [name, m] : rows) {
      table.add_row({c.name, name, std::to_string(m.load.max_channel_load),
                     common::fmt(m.load.mean_channel_load, 2),
                     common::fmt(m.load.root_traffic_share, 3),
                     common::fmt(m.mean_hops, 2), std::to_string(m.max_hops),
                     std::to_string(m.dependencies),
                     m.certified ? "yes" : "NO"});
      const std::string key = c.name + "/" + name;
      report.add(key, "max_channel_load",
                 static_cast<double>(m.load.max_channel_load));
      report.add(key, "mean_channel_load", m.load.mean_channel_load);
      report.add(key, "root_traffic_share", m.load.root_traffic_share);
      report.add(key, "mean_hops", m.mean_hops);
      report.add(key, "max_hops", m.max_hops);
      report.add(key, "dependencies", static_cast<double>(m.dependencies));
      report.add(key, "certified", m.certified ? 1 : 0);
      for (const auto& [hops, count] : m.histogram) {
        report.add(key, "paths_with_" + std::to_string(hops) + "_hops",
                   static_cast<double>(count));
      }
      if (c.name == "fig5-NOW-100") {
        fig5_histograms += "fig5 " + name + " path-length histogram: " +
                           histogram_str(m.histogram) + "\n";
      }
      if (!m.certified) {
        fail(c.name + " / " + name + " did not certify");
      }
    }
    if (!cmp.never_worse) {
      fail(c.name + ": the optimizer raised the max load or changed a "
                    "route's hop count");
    }
    if (c.must_cut &&
        cmp.opt.load.max_channel_load >= cmp.raw.load.max_channel_load) {
      fail(c.name + ": the optimizer did not cut the max load (" +
           std::to_string(cmp.raw.load.max_channel_load) + " -> " +
           std::to_string(cmp.opt.load.max_channel_load) + ")");
    }
  }
  std::cout << table << "\n" << fig5_histograms;

  // The same certification and never-worse gates over the scenario corpus.
  std::size_t corpus_cases = 0;
  bool corpus_ok = true;
  namespace fs = std::filesystem;
  std::vector<fs::path> case_files;
  for (const auto& entry : fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      case_files.push_back(entry.path());
    }
  }
  std::sort(case_files.begin(), case_files.end());
  for (const fs::path& path : case_files) {
    const verify::ScenarioCase scenario =
        verify::read_case_file(path.string());
    const topo::Topology local = routable_component(scenario.network);
    if (local.num_switches() < 1 || local.num_hosts() < 1) {
      continue;
    }
    ++corpus_cases;
    const Comparison cmp = compare(local);
    if (!cmp.raw.certified || !cmp.opt.certified || !cmp.never_worse) {
      corpus_ok = false;
      std::cout << "CORPUS FAILURE: " << path.filename().string()
                << (cmp.never_worse ? " did not certify"
                                    : ": the optimizer made it worse")
                << "\n";
    }
  }
  std::cout << "corpus: " << corpus_cases << " scenario cases, both variants "
            << (corpus_ok ? "certified, optimizer never worse" : "FAILED")
            << "\n";
  report.add("corpus", "cases", static_cast<double>(corpus_cases));
  report.add("corpus", "all_certified", corpus_ok ? 1 : 0);

  gates_ok = gates_ok && corpus_ok && corpus_cases > 0;
  report.add("gate", "passed", gates_ok ? 1 : 0);
  report.write();
  std::cout << (gates_ok
                    ? "RESULT: both variants certified everywhere; the "
                      "optimizer never raises max load or changes a hop "
                      "count, and cuts max load on fig4 and multi-pod\n"
                    : "RESULT: FAILURE\n");
  return gates_ok ? 0 : 1;
}
