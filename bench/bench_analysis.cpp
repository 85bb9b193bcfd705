// Incremental sanlint under rolling churn: per-epoch analysis cost of the
// dirty-region engine (reanalyze plus the independent DeltaChecker, the
// path behind `sanmap lint --diff`) against a from-scratch analyze() of the
// same (map, routes) pair, on megafabric-sized fat trees.
//
// Fabric: mega_fat_tree at several leaf widths (128/256 leaves in --smoke,
// 512/1024/2048 — ~4k switches — in the full run), stripped down to ~48
// hosts spread across the leaves: a service fabric's analysis bill is
// dominated by the fabric sweep (O(m)) and the route table (O(R)), and the
// stripping keeps R fixed while m scales, which is exactly the regime the
// incremental engine's sublinearity claim is about.
//
// Churn: one wire event per epoch — kill a redundant (non-bridge)
// switch-switch wire on even epochs, revive it on odd ones (reconnection
// mints a fresh wire id; candidates are rescanned every epoch because ids
// are append-only). Victims are drawn from wires OFF the current route
// table: that is the fast-path regime the engine is designed for (fabric
// churn around a stable table — on a 4k-switch fabric the vast majority of
// wires carry no route). Killing a route-carrying wire instead reshuffles
// a large fraction of the table through the router's load-balance
// tie-break, which is the remap/escalation regime — the bench injects
// exactly one such reshuffle epoch per size so the engine's exactness is
// exercised on big deltas too, but gates on medians so that epoch reports
// rather than dominates. The root is pinned to epoch 0's natural root so
// root flips never force escalations the scenario didn't ask for.
//
// Per epoch, both pipelines analyze the identical inputs; the bench then
// field-compares the two AnalysisResults (diagnostics, legality entries,
// labels, deadlock verdict — everything but the interchangeable topological
// order) and counts any mismatch as a divergence.
//
// Self-gating (exit 1 on failure):
//  * zero divergences and zero checker rejections across every epoch;
//  * median per-epoch speedup (median full ms / median incremental ms)
//    >= 5x at the largest fabric (>= 2x in --smoke);
//  * sublinear growth: scaling the fabric from the smallest to the largest
//    size grows the median incremental epoch by at most 0.85x the wire
//    growth. (The full analyzer's growth is reported alongside for context,
//    not gated: at small sizes both pipelines share the same route-table-
//    bound floor, so their growth ratios converge regardless of the fabric
//    term this bench isolates.)
//
// Results land in BENCH_analysis.json. --smoke shrinks the sweep for CI.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/incremental.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "routing/routes.hpp"

namespace {

using namespace sanmap;

constexpr std::size_t kHostsKept = 48;

topo::Topology make_fabric(int leaves) {
  topo::MegaFatTreeOptions options;
  options.levels = 4;
  options.leaf_switches = leaves;
  options.taper = 2;
  options.hosts_per_leaf = 1;
  topo::Topology t = topo::mega_fat_tree(options);
  // Strip to kHostsKept hosts, strided across the leaves. No compaction:
  // the churn loop and the incremental engine both key on stable ids.
  const auto hosts = t.hosts();
  const std::size_t stride =
      std::max<std::size_t>(1, hosts.size() / kHostsKept);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (i % stride == 0 && kept < kHostsKept) {
      ++kept;
      continue;
    }
    t.remove_node(hosts[i]);
  }
  return t;
}

/// Non-bridge switch-to-switch wires: killable without splitting the fabric.
std::vector<topo::WireId> redundant_wires(const topo::Topology& t) {
  const auto bridge_list = topo::bridges(t);
  const std::set<topo::WireId> bridge_set(bridge_list.begin(),
                                          bridge_list.end());
  std::vector<topo::WireId> out;
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (!bridge_set.contains(w) && t.is_switch(wire.a.node) &&
        t.is_switch(wire.b.node)) {
      out.push_back(w);
    }
  }
  return out;
}

/// Wires carried by at least one route in the current table.
std::set<topo::WireId> routed_wires(const routing::RoutingResult& routes) {
  std::set<topo::WireId> used;
  for (const auto& [key, route] : routes.routes) {
    used.insert(route.wires.begin(), route.wires.end());
  }
  return used;
}

/// True when the two results agree on everything but the interchangeable
/// deadlock topological order.
bool equivalent(const analysis::AnalysisResult& full,
                const analysis::AnalysisResult& inc) {
  const auto& a = full.report.diagnostics();
  const auto& b = inc.report.diagnostics();
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].code != b[i].code || a[i].severity != b[i].severity ||
        a[i].location != b[i].location || a[i].message != b[i].message ||
        a[i].hint != b[i].hint) {
      return false;
    }
  }
  if (full.analyzed_routes != inc.analyzed_routes) {
    return false;
  }
  if (!full.analyzed_routes) {
    return true;
  }
  if (full.legality.root != inc.legality.root ||
      full.legality.labels != inc.legality.labels ||
      full.legality.all_legal != inc.legality.all_legal ||
      full.legality.routes.size() != inc.legality.routes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < full.legality.routes.size(); ++i) {
    const analysis::RouteLegality& x = full.legality.routes[i];
    const analysis::RouteLegality& y = inc.legality.routes[i];
    if (x.src != y.src || x.dst != y.dst || x.legal != y.legal ||
        x.apex_hop != y.apex_hop || x.offending_hop != y.offending_hop) {
      return false;
    }
  }
  return full.deadlock.deadlock_free == inc.deadlock.deadlock_free &&
         full.deadlock.channels == inc.deadlock.channels &&
         full.deadlock.dependencies == inc.deadlock.dependencies;
}

struct SizeResult {
  int leaves = 0;
  std::size_t switches = 0;
  std::size_t wires = 0;
  std::size_t routes = 0;
  int epochs = 0;
  int fast_path = 0;
  int escalated = 0;
  int divergences = 0;
  int checker_rejections = 0;
  double full_total_ms = 0.0;
  double inc_total_ms = 0.0;
  std::vector<double> full_epoch_ms;
  std::vector<double> inc_epoch_ms;

  [[nodiscard]] double total_speedup() const {
    return inc_total_ms > 0.0 ? full_total_ms / inc_total_ms : 0.0;
  }
};

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// The gated figure: typical-epoch speedup, robust to the one deliberate
/// reshuffle epoch per size.
double median_speedup(const SizeResult& r) {
  const double inc = median(r.inc_epoch_ms);
  return inc > 0.0 ? median(r.full_epoch_ms) / inc : 0.0;
}

double ms_since(const std::chrono::steady_clock::time_point& start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1e6;
}

SizeResult run_size(int leaves, int epochs, std::uint64_t seed) {
  topo::Topology t = make_fabric(leaves);
  SizeResult result;
  result.leaves = leaves;
  result.switches = t.num_switches();
  result.wires = t.num_wires();
  result.epochs = epochs;

  // Pin the root across the whole soak: epoch 0's natural root.
  const routing::RoutingResult seed_routes =
      routing::compute_updown_routes(t, {}, seed);
  routing::UpDownOptions route_options;
  route_options.root = seed_routes.orientation.root();
  result.routes = seed_routes.routes.size();

  analysis::AnalysisState state;
  analysis::DeltaChecker checker;
  const analysis::AnalysisState::Result base = state.reset(t, seed_routes);
  if (!checker.check(t, seed_routes, base.analysis, base.delta)) {
    ++result.checker_rejections;
    return result;
  }

  common::Rng rng(seed);
  struct Killed {
    topo::NodeId a;
    topo::Port pa;
    topo::NodeId b;
    topo::Port pb;
  };
  std::vector<Killed> downed;
  std::set<topo::WireId> used = routed_wires(seed_routes);
  // One kill epoch per size deliberately targets a route-carrying wire: the
  // router's load-balance tie-break then reshuffles a chunk of the table and
  // the engine has to prove a large delta exactly.
  const int reshuffle_epoch = (epochs / 2) & ~1;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Rolling churn, one wire event per epoch. Candidates are rescanned
    // every time: reviving mints a fresh id, so a stale list would point at
    // tombstones.
    if (!downed.empty() && epoch % 2 == 1) {
      const Killed k = downed.back();
      downed.pop_back();
      t.connect(k.a, k.pa, k.b, k.pb);
    } else {
      const bool want_routed = epoch == reshuffle_epoch;
      std::vector<topo::WireId> candidates;
      for (const topo::WireId w : redundant_wires(t)) {
        if (used.contains(w) == want_routed) {
          candidates.push_back(w);
        }
      }
      if (candidates.empty()) {
        // Degenerate fabric (every redundant wire on one side of the route
        // table) — fall back to any redundant wire.
        candidates = redundant_wires(t);
      }
      if (candidates.empty()) {
        break;
      }
      const topo::WireId victim =
          candidates[rng.below(candidates.size())];
      const topo::Wire& wire = t.wire(victim);
      downed.push_back({wire.a.node, wire.a.port, wire.b.node, wire.b.port});
      t.disconnect(victim);
    }
    const routing::RoutingResult routes =
        routing::compute_updown_routes(t, route_options, seed);
    used = routed_wires(routes);

    const auto full_start = std::chrono::steady_clock::now();
    const analysis::AnalysisResult full = analysis::analyze(t, routes);
    const double full_ms = ms_since(full_start);

    // The production gate path: reanalyze + the independent checker.
    const auto inc_start = std::chrono::steady_clock::now();
    const analysis::AnalysisState::Result step = state.reanalyze(t, routes);
    const bool proved =
        checker.check(t, routes, step.analysis, step.delta);
    const double inc_ms = ms_since(inc_start);

    result.full_total_ms += full_ms;
    result.inc_total_ms += inc_ms;
    result.full_epoch_ms.push_back(full_ms);
    result.inc_epoch_ms.push_back(inc_ms);
    if (step.delta.escalated_full) {
      ++result.escalated;
    } else {
      ++result.fast_path;
    }
    if (!proved) {
      ++result.checker_rejections;
      state.reset(t, routes, analysis::EscalationReason::kCheckerRejected);
    }
    if (!equivalent(full, step.analysis)) {
      ++result.divergences;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("seed", "1", "churn victim-selection seed");
  flags.define("epochs", "0", "churn epochs per fabric size (0 = default)");
  flags.define("smoke", "false", "CI-sized sweep (small fabrics, few epochs)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  int epochs = static_cast<int>(flags.get_int("epochs"));
  if (epochs == 0) {
    epochs = smoke ? 8 : 16;
  }
  const std::vector<int> sizes =
      smoke ? std::vector<int>{128, 256} : std::vector<int>{512, 1024, 2048};
  const double min_speedup = smoke ? 2.0 : 5.0;

  std::cout << "== incremental analysis under churn ==\n"
            << "mega_fat_tree sweep, " << kHostsKept << " hosts kept, "
            << epochs << " epochs per size, seed " << seed << "\n\n";

  std::vector<SizeResult> results;
  for (const int leaves : sizes) {
    results.push_back(run_size(leaves, epochs, seed));
  }

  common::Table table({"leaves", "switches", "wires", "routes", "fast/esc",
                       "full ms/epoch", "inc ms/epoch", "speedup"});
  for (const SizeResult& r : results) {
    table.add_row({std::to_string(r.leaves), std::to_string(r.switches),
                   std::to_string(r.wires), std::to_string(r.routes),
                   std::to_string(r.fast_path) + "/" +
                       std::to_string(r.escalated),
                   common::fmt(median(r.full_epoch_ms), 3),
                   common::fmt(median(r.inc_epoch_ms), 3),
                   common::fmt(median_speedup(r), 1) + "x"});
  }
  std::cout << table;

  const SizeResult& small = results.front();
  const SizeResult& large = results.back();
  const double wire_growth =
      static_cast<double>(large.wires) / static_cast<double>(small.wires);
  const double inc_growth =
      median(small.inc_epoch_ms) > 0.0
          ? median(large.inc_epoch_ms) / median(small.inc_epoch_ms)
          : 0.0;
  const double full_growth =
      median(small.full_epoch_ms) > 0.0
          ? median(large.full_epoch_ms) / median(small.full_epoch_ms)
          : 0.0;
  int divergences = 0;
  int rejections = 0;
  for (const SizeResult& r : results) {
    divergences += r.divergences;
    rejections += r.checker_rejections;
  }
  std::cout << "\nwire growth " << common::fmt(wire_growth, 2)
            << "x, inc epoch growth " << common::fmt(inc_growth, 2)
            << "x, full epoch growth " << common::fmt(full_growth, 2)
            << "x\nlargest-fabric median speedup "
            << common::fmt(median_speedup(large), 1) << "x (gate: >= "
            << common::fmt(min_speedup, 0) << "x), total-time ratio "
            << common::fmt(large.total_speedup(), 1) << "x, divergences "
            << divergences << ", checker rejections " << rejections << "\n";

  bench::JsonReport json("analysis");
  for (const SizeResult& r : results) {
    const std::string name = std::to_string(r.leaves) + "-leaves";
    json.add(name, "switches", static_cast<double>(r.switches));
    json.add(name, "wires", static_cast<double>(r.wires));
    json.add(name, "routes", static_cast<double>(r.routes));
    json.add(name, "fast_path", r.fast_path);
    json.add(name, "escalated", r.escalated);
    json.add(name, "full_epoch_median_ms", median(r.full_epoch_ms));
    json.add(name, "inc_epoch_median_ms", median(r.inc_epoch_ms));
    json.add(name, "median_speedup", median_speedup(r));
    json.add(name, "total_speedup", r.total_speedup());
  }
  json.add("gate", "wire_growth", wire_growth);
  json.add("gate", "inc_epoch_growth", inc_growth);
  json.add("gate", "full_epoch_growth", full_growth);
  json.add("gate", "largest_median_speedup", median_speedup(large));
  json.add("gate", "divergences", divergences);
  json.add("gate", "checker_rejections", rejections);
  json.write();

  bool failed = false;
  if (divergences != 0) {
    std::cerr << "GATE: incremental and from-scratch verdicts diverged "
              << divergences << " time(s)\n";
    failed = true;
  }
  if (rejections != 0) {
    std::cerr << "GATE: the independent checker rejected " << rejections
              << " delta(s)\n";
    failed = true;
  }
  if (median_speedup(large) < min_speedup) {
    std::cerr << "GATE: largest-fabric median speedup "
              << common::fmt(median_speedup(large), 2) << "x below "
              << common::fmt(min_speedup, 0) << "x\n";
    failed = true;
  }
  if (large.fast_path == 0) {
    std::cerr << "GATE: no epoch was served from the fast path\n";
    failed = true;
  }
  if (inc_growth > 0.85 * wire_growth) {
    std::cerr << "GATE: incremental epoch grew " << common::fmt(inc_growth, 2)
              << "x against " << common::fmt(wire_growth, 2)
              << "x wire growth (need <= 0.85x of it)\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
