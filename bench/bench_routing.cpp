// Routing gate and study (§5.5/§6): UP*/DOWN* raw and through the
// RouteOptimizer, next to the alternatives the paper discusses, on the
// paper's NOW cluster, the megafabric generators, small regular and
// irregular fabrics, and the maps the Berkeley mapper produces of them.
//
// §5.5 names the known UP*/DOWN* weaknesses — "increased congestion about
// the root" and strong topology dependence — and its locally-dominant-switch
// relabeling fix; "a strategically placed cable or two can re-root the
// UP*/DOWN* tree". Per fabric the bench reports five tables:
//  * updown          — UP*/DOWN* from the far root, dominant fix on;
//  * updown+opt      — the same, re-selected by the RouteOptimizer among
//                      the legal same-length alternatives;
//  * no-dominant-fix — the relabeling fix off;
//  * bad-root        — rooted at a leaf-most switch (nearest to a host);
//  * spanning-tree   — every route on one BFS tree (the baseline that
//                      ignores redundant links).
// Each row shows channel loads (max/mean, root share), path lengths,
// dominant-switch relabelings, channel dependencies, the certificate and
// the replay count.
//
// Self-gating (exit 1 on regression):
//  * updown and updown+opt must certify (deadlock-free by the 3-color DFS
//    and order-compliant) on every bench fabric AND every corpus scenario;
//  * every route of every certified table must replay through the simulator
//    to its destination — on the "(mapped)" fabrics, that is the routes the
//    system computes on its own map (§5.5's deliverable);
//  * the optimizer must never raise the max channel load nor change a
//    route's hop count anywhere, and must strictly cut the max load on fig4
//    and multi-pod, where it earns its place (full run 85 -> 78 and
//    88 -> 61, --smoke 85 -> 78 and 39 -> 37);
//  * route-table distribution (§5.5's last step) over NOW-100 must deliver
//    every table.
//
// Flags: --smoke shrinks the megafabrics so CI finishes in seconds; an
// unknown flag is an error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/optimizer.hpp"
#include "routing/tree_routes.hpp"
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

/// A deliberately bad UP*/DOWN* root: the switch nearest to some host.
topo::NodeId leafmost_switch(const topo::Topology& t) {
  topo::NodeId root = topo::kInvalidNode;
  int best = std::numeric_limits<int>::max();
  for (const topo::NodeId s : t.switches()) {
    int nearest = std::numeric_limits<int>::max();
    const auto dist = topo::bfs_distances(t, s);
    for (const topo::NodeId h : t.hosts()) {
      nearest = std::min(nearest, dist[h]);
    }
    if (nearest < best) {
      best = nearest;
      root = s;
    }
  }
  return root;
}

struct Measured {
  routing::CongestionStats load;
  double mean_hops = 0.0;
  int max_hops = 0;
  /// hops -> route count.
  std::map<int, std::size_t> histogram;
  int relabeled = 0;
  std::size_t dependencies = 0;
  bool certified = false;
  std::size_t routes = 0;
  /// Routes the simulator delivers to their destination.
  std::size_t replayed = 0;

  [[nodiscard]] bool all_replayed() const { return replayed == routes; }
};

Measured measure(const topo::Topology& t,
                 const routing::RoutingResult& routes) {
  Measured m;
  m.load = routing::channel_load(t, routes);
  m.mean_hops = routes.mean_hops();
  m.max_hops = routes.max_hops();
  m.relabeled = routes.orientation.relabeled_switches();
  simnet::Network replay(t);
  for (const auto& [key, route] : routes.routes) {
    ++m.histogram[route.hops()];
    const auto r = replay.send(key.first, route.turns);
    if (r.delivered() && r.destination == key.second) {
      ++m.replayed;
    }
  }
  m.routes = routes.routes.size();
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

  /// Both tables certify and replay, and the optimizer did no harm.
  [[nodiscard]] bool ok() const {
    return raw.certified && opt.certified && raw.all_replayed() &&
           opt.all_replayed() && never_worse;
  }
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

/// A diamond with a host-free far corner: the textbook locally dominant
/// switch. Without the §5.5 relabeling every cross route squeezes through
/// the root; with it the corner carries half the load.
topo::Topology diamond() {
  topo::Topology d;
  const topo::NodeId r = d.add_switch("r");
  const topo::NodeId x = d.add_switch("x");
  const topo::NodeId y = d.add_switch("y");
  const topo::NodeId m = d.add_switch("m");
  d.connect(r, 0, x, 0);
  d.connect(r, 1, y, 0);
  d.connect(x, 1, m, 0);
  d.connect(y, 1, m, 1);
  for (int i = 0; i < 4; ++i) {
    const topo::NodeId hx = d.add_host("hx" + std::to_string(i));
    d.connect(hx, 0, x, static_cast<topo::Port>(2 + i));
    const topo::NodeId hy = d.add_host("hy" + std::to_string(i));
    d.connect(hy, 0, y, static_cast<topo::Port>(2 + i));
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("smoke", "false", "shrink the megafabrics (CI smoke run)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");

  std::cout << "=== routing: UP*/DOWN* raw, through the RouteOptimizer, and "
               "its alternatives ===\n";
  bench::JsonReport report("routing");

  struct Case {
    std::string name;
    topo::Topology network;
    /// The optimizer must strictly cut the max channel load here.
    bool must_cut = false;
  };
  std::vector<Case> cases;
  cases.push_back({"fig4-subcluster-C",
                   topo::now_subcluster(topo::Subcluster::kC, "C"), true});
  cases.push_back({"fig5-NOW-100", topo::now_cluster()});
  {
    topo::MegaFatTreeOptions mft;
    mft.leaf_switches = smoke ? 32 : 128;
    mft.hosts_per_leaf = 1;
    cases.push_back({"mega-fat-tree", topo::mega_fat_tree(mft)});
    common::Rng rng(7);
    topo::DragonflyishOptions dfly;
    dfly.groups = smoke ? 4 : 8;
    dfly.switches_per_group = 4;
    dfly.hosts_per_group = 2;
    cases.push_back({"dragonfly-ish", topo::dragonfly_ish(dfly, rng)});
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
  {
    // (torus 4x4 is routed only as a map below: C4 x C4 is
    // graph-isomorphic to the 4-cube.)
    cases.push_back({"torus 5x4", topo::torus(5, 4, 1)});
    cases.push_back({"hypercube(4,1)", topo::hypercube(4, 1)});
    common::Rng rng(123);
    cases.push_back({"random 12s/16h", topo::random_irregular(12, 16, 8, rng)});
    cases.push_back({"diamond (dominant m)", diamond()});
  }
  {
    // §5.5: the system routes on the MAP the Berkeley algorithm produces.
    common::Rng rng(99);
    const std::pair<std::string, topo::Topology> mapped[] = {
        {"C", topo::now_subcluster(topo::Subcluster::kC, "C")},
        {"NOW-100", topo::now_cluster()},
        {"hypercube(4,1)", topo::hypercube(4, 1)},
        {"mesh 4x4", topo::mesh(4, 4, 1)},
        {"torus 4x4", topo::torus(4, 4, 1)},
        {"ring 8", topo::ring(8, 2)},
        {"random 12s/16h", topo::random_irregular(12, 16, 6, rng)}};
    for (const auto& [name, network] : mapped) {
      cases.push_back({name + " (mapped)", bench::run_berkeley(network).map});
    }
  }

  common::Table table({"Topology", "variant", "max load", "mean load",
                       "root share", "mean hops", "max", "deps",
                       "certified", "relabel", "replayed"});
  std::string fig5_histograms;
  bool gates_ok = true;
  const auto fail = [&](const std::string& why) {
    std::cout << "GATE FAILURE: " << why << "\n";
    gates_ok = false;
  };
  for (const auto& c : cases) {
    const Comparison cmp = compare(c.network);
    routing::UpDownOptions no_fix;
    no_fix.fix_dominant_switches = false;
    routing::UpDownOptions bad_root;
    bad_root.root = leafmost_switch(c.network);
    const Measured no_fix_m = measure(
        c.network, routing::compute_updown_routes(c.network, no_fix));
    const Measured bad_root_m = measure(
        c.network, routing::compute_updown_routes(c.network, bad_root));
    const Measured tree_m =
        measure(c.network, routing::compute_tree_routes(c.network));
    struct Row {
      std::string name;
      const Measured& m;
      /// The production tables: gated on certification, histogram shown.
      bool gated;
    };
    const Row rows[] = {{"updown", cmp.raw, true},
                        {"updown+opt", cmp.opt, true},
                        {"no-dominant-fix", no_fix_m, false},
                        {"bad-root", bad_root_m, false},
                        {"spanning-tree", tree_m, false}};
    for (const auto& [name, m, gated] : rows) {
      table.add_row({c.name, name, std::to_string(m.load.max_channel_load),
                     common::fmt(m.load.mean_channel_load, 2),
                     common::fmt(m.load.root_traffic_share, 3),
                     common::fmt(m.mean_hops, 2), std::to_string(m.max_hops),
                     std::to_string(m.dependencies),
                     m.certified ? "yes" : "NO", std::to_string(m.relabeled),
                     std::to_string(m.replayed) + "/" +
                         std::to_string(m.routes)});
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
      report.add(key, "relabeled_switches", m.relabeled);
      report.add(key, "routes", static_cast<double>(m.routes));
      report.add(key, "replayed", static_cast<double>(m.replayed));
      if (gated && c.name == "fig5-NOW-100") {
        fig5_histograms += "fig5 " + name + " path-length histogram: " +
                           histogram_str(m.histogram) + "\n";
      }
      if (gated && !m.certified) {
        fail(c.name + " / " + name + " did not certify");
      }
      if (m.certified && !m.all_replayed()) {
        fail(c.name + " / " + name + ": " +
             std::to_string(m.routes - m.replayed) +
             " routes did not replay to their destination");
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

  // The same certification, replay and never-worse gates over the corpus.
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
    if (!cmp.ok()) {
      corpus_ok = false;
      std::cout << "CORPUS FAILURE: " << path.filename().string()
                << (cmp.never_worse
                        ? " did not certify and replay"
                        : ": the optimizer made it worse")
                << "\n";
    }
  }
  std::cout << "corpus: " << corpus_cases << " scenario cases, both variants "
            << (corpus_ok ? "certified and replayed, optimizer never worse"
                          : "FAILED")
            << "\n";
  report.add("corpus", "cases", static_cast<double>(corpus_cases));
  report.add("corpus", "all_certified", corpus_ok ? 1 : 0);

  // §5.5's last step: ship every host its table over the fabric.
  const topo::Topology now = topo::now_cluster();
  simnet::Network net(now);
  const auto dist = routing::distribute_tables(
      net, routing::compute_updown_routes(now), *now.find_host("C.util"));
  std::cout << "distribution (NOW-100, master C.util): " << dist.messages
            << " messages, " << dist.bytes << " bytes, " << dist.elapsed.str()
            << ", " << (dist.complete ? "all delivered" : "INCOMPLETE")
            << "\n";
  report.add("fig5-NOW-100/distribute", "messages",
             static_cast<double>(dist.messages));
  report.add("fig5-NOW-100/distribute", "bytes",
             static_cast<double>(dist.bytes));
  report.add("fig5-NOW-100/distribute", "complete", dist.complete ? 1 : 0);
  if (!dist.complete) {
    fail("route-table distribution left a table undelivered");
  }

  gates_ok = gates_ok && corpus_ok && corpus_cases > 0;
  report.add("gate", "passed", gates_ok ? 1 : 0);
  report.write();
  std::cout << (gates_ok
                    ? "RESULT: updown and updown+opt certified everywhere; "
                      "every certified table replays; the optimizer never "
                      "raises max load or changes a hop count, and cuts max "
                      "load on fig4 and multi-pod; every table distributed\n"
                    : "RESULT: FAILURE\n");
  return gates_ok ? 0 : 1;
}
