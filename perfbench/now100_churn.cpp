// now100-churn: the map service under a churn scenario on NOW-100.
//
// The paper's 100-node NOW (master C.util) is served by a RefreshLoop while
// a seeded ChurnGenerator scenario — rolling maintenance, one correlated
// outage, a flap burst and host churn, anchored after bootstrap — breaks and
// revives parts of it. One writer thread ticks the loop until the scenario
// is over; three closed-loop reader threads call RouteQueryEngine::route
// over every host pair meanwhile, and a sample of their answers is checked
// against the snapshot that produced it.
//
// A run plays kCycle scenarios (distinct target-selection seeds derived from
// the run's seed) over and over until its time is up. Virtual-clock figures
// come from the first kCycle scenarios, so they repeat exactly for a seed;
// wall-clock figures come from every scenario played.
#include <atomic>
#include <optional>
#include <thread>

#include "analysis/analyzer.hpp"
#include "common/rng.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "simnet/churn.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sanmap;

namespace {

constexpr const char* kMaster = "C.util";
constexpr const char* kScenario =
    "rolling(start=2s,every=25s,down=6s,count=4);"
    "outage(at=60s,switches=2,down=8s);"
    "flapburst(at=100s,span=3s,period=150,duty=0.5,wires=2);"
    "hostchurn(start=14s,every=25s,down=6s,count=4)";
constexpr int kCycle = 10;
constexpr int kReaders = 3;
/// Readers check every kVerifyEvery-th answer against its snapshot.
constexpr std::uint64_t kVerifyEvery = 8;
/// Ticks continue this long past the scenario's last transition.
constexpr common::SimTime kSettle = common::SimTime::seconds(5);

/// What one scenario's writer saw; all virtual-clock and count fields are
/// deterministic for a scenario seed.
struct ScenarioRecord {
  double setup_s = 0.0;
  std::vector<double> tick_ms;
  std::vector<bool> tick_remapped;
  std::vector<double> check_period_ms;  // observe ticks only
  std::vector<double> remap_tick_ms;    // wall, ticks that remapped
  std::vector<double> remap_virtual_ms;
  std::vector<double> stale_ms;
  std::uint64_t routes_checked = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_traversals = 0;
  std::uint64_t remap_incremental = 0;
  std::uint64_t remap_full = 0;
  std::uint64_t remap_escalated = 0;
  std::uint64_t remap_incremental_tried = 0;
  std::uint64_t remap_probes = 0;
  service::MapCatalog::Stats catalog;
  service::MapCatalog::GateStats gate;
  // Readers (timing-dependent).
  std::uint64_t queries = 0;
  std::uint64_t misses = 0;
  std::uint64_t degraded = 0;
  double reader_seconds = 0.0;
};

/// One reader's closed loop over every host pair.
struct Reader {
  LatencyHistogram latency;
  std::uint64_t queries = 0;
  std::uint64_t misses = 0;
  std::uint64_t degraded = 0;
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
};

void read_until(const service::MapCatalog& catalog,
                const std::vector<service::RouteQuery>& pairs,
                std::size_t offset, const std::atomic<bool>& stop,
                Reader& reader) {
  const service::RouteQueryEngine engine(catalog);
  service::SnapshotPtr snap;
  std::size_t i = offset % pairs.size();
  while (!stop.load(std::memory_order_relaxed)) {
    const service::RouteQuery& q = pairs[i];
    i = i + 1 == pairs.size() ? 0 : i + 1;
    const std::int64_t start = now_ns();
    const service::RouteAnswer a = engine.route(q.src, q.dst);
    reader.latency.add(static_cast<std::uint64_t>(now_ns() - start));
    ++reader.queries;
    if (reader.queries % kVerifyEvery != 0 ||
        a.status != service::QueryStatus::kOk) {
      continue;
    }
    if (!snap || snap->epoch != a.epoch) {
      snap = catalog.current();
    }
    if (!snap || snap->epoch != a.epoch) {
      continue;  // a publish landed in between; nothing to compare against
    }
    ++reader.checked;
    const auto src = snap->map.find_host(q.src);
    const auto dst = snap->map.find_host(q.dst);
    if (!src || !dst || snap->routes.route(*src, *dst).turns != a.turns) {
      ++reader.wrong;
    }
  }
  reader.misses = engine.misses();
  reader.degraded = engine.degraded();
}

struct Fabric {
  topo::Topology fabric;
  topo::Topology core;
  topo::NodeId master = topo::kInvalidNode;
  std::vector<service::RouteQuery> pairs;
};

Fabric build_fabric() {
  Fabric f;
  {
    const Span span(sites::topology_build);
    f.fabric = topo::now_cluster();
  }
  f.master = *f.fabric.find_host(kMaster);
  f.core = topo::core(f.fabric);
  const std::vector<topo::NodeId> hosts = f.fabric.hosts();
  for (const topo::NodeId a : hosts) {
    for (const topo::NodeId b : hosts) {
      if (a != b) {
        f.pairs.push_back({f.fabric.name(a), f.fabric.name(b)});
      }
    }
  }
  return f;
}

/// Stops and joins the reader threads however the writer's loop ends.
struct JoinReaders {
  std::atomic<bool>& stop;
  std::vector<std::thread>& threads;
  ~JoinReaders() {
    stop = true;
    for (std::thread& t : threads) {
      t.join();
    }
  }
};

ScenarioRecord play(const simnet::ChurnSpec& spec, std::uint64_t churn_seed,
                    Result& result, LatencyHistogram& latency) {
  ScenarioRecord rec;
  // Set-up: the fabric, the service and its bootstrap epoch.
  const std::int64_t setup_start = now_ns();
  const Fabric f = build_fabric();
  std::optional<simnet::Network> net;
  {
    const Span span(sites::simnet_network);
    net.emplace(f.fabric);
  }
  service::MapCatalog catalog;
  service::RefreshConfig config;
  config.master_name = kMaster;
  service::RefreshLoop loop(*net, catalog, config);
  const service::TickReport boot = loop.bootstrap();
  rec.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  {
    const Untraced untraced;
    const service::SnapshotPtr first = catalog.current();
    result.check(boot.publish_status == service::TickPublish::kPublished &&
                     first && first->deadlock_free && first->compliant,
                 "bootstrap snapshot published and certified");
    result.check(first && topo::isomorphic(first->map, f.core),
                 "Theorem 1: bootstrap map isomorphic to the fabric's core");
  }

  const simnet::FaultSchedule schedule =
      simnet::ChurnGenerator(spec.shifted(loop.now()), churn_seed)
          .compile(f.fabric, {f.master});
  net->attach_faults(&schedule);
  net->reset_counters();
  const common::SimTime end = loop.now() +
                              spec.horizon(f.fabric.num_switches()) + kSettle;
  const common::SimTime interval = config.check_interval;

  std::atomic<bool> stop{false};
  std::vector<Reader> round(kReaders);
  std::vector<std::thread> threads;
  const std::int64_t readers_start = now_ns();
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(read_until, std::cref(catalog), std::cref(f.pairs),
                         f.pairs.size() * static_cast<std::size_t>(r) /
                             kReaders,
                         std::cref(stop),
                         std::ref(round[static_cast<std::size_t>(r)]));
  }

  bool in_stale = false;
  common::SimTime stale_start{};
  common::SimTime prev_at = loop.now();
  {
    const JoinReaders join{stop, threads};
    while (loop.now() < end) {
      std::int64_t start = 0;
      service::TickReport report;
      {
        const Operation op;
        start = now_ns();
        report = loop.tick();
        rec.tick_ms.push_back(to_ms(static_cast<double>(now_ns() - start)));
      }
      rec.tick_remapped.push_back(report.remapped);
      rec.routes_checked += report.routes_checked;
      if (report.remapped) {
        rec.remap_tick_ms.push_back(rec.tick_ms.back());
        rec.remap_virtual_ms.push_back((report.at - prev_at).to_ms());
        rec.remap_probes += report.probes_used;
        rec.remap_escalated += report.escalated ? 1 : 0;
        if (report.remap == service::RemapKind::kIncremental ||
            report.escalated) {
          ++rec.remap_incremental_tried;
        }
        if (report.swapped()) {
          rec.remap_incremental +=
              report.remap == service::RemapKind::kIncremental ? 1 : 0;
          rec.remap_full += report.remap == service::RemapKind::kFull ? 1 : 0;
        }
      } else {
        rec.check_period_ms.push_back((report.at - prev_at).to_ms());
      }
      if (report.publish_status != service::TickPublish::kNotAttempted) {
        const service::SnapshotPtr now_serving = catalog.current();
        result.check(report.publish_status == service::TickPublish::kPublished,
                     "a tick that tried to publish published");
        result.check(now_serving && now_serving->deadlock_free &&
                         now_serving->compliant,
                     "served snapshot is deadlock-free and compliant");
        if (report.swapped() && now_serving) {
          // Re-prove what is served from scratch, independently of the
          // gate's incremental verdict.
          const Untraced untraced;
          result.check(analysis::analyze(now_serving->map, now_serving->routes)
                               .report.errors() == 0,
                       "served snapshot passes a from-scratch analysis");
        }
      }
      // Staleness: breakage is seen at the tick's check instant (one
      // interval past the previous tick) and ends when a publish restores
      // kFresh.
      const bool fresh =
          report.health == service::MapCatalog::HealthState::kFresh;
      if (!in_stale && report.broken > 0) {
        in_stale = true;
        stale_start = prev_at + interval;
      }
      if (in_stale && fresh) {
        in_stale = false;
        rec.stale_ms.push_back((report.at - stale_start).to_ms());
      }
      prev_at = report.at;
    }
  }
  rec.reader_seconds = static_cast<double>(now_ns() - readers_start) / 1e9;
  for (std::size_t r = 0; r < round.size(); ++r) {
    rec.queries += round[r].queries;
    rec.misses += round[r].misses;
    rec.degraded += round[r].degraded;
    result.count(round[r].checked, round[r].wrong,
                 "reader answer equals its snapshot's route");
    latency.merge(round[r].latency);
  }
  rec.messages = net->counters().messages;
  rec.wire_traversals = net->counters().wire_traversals;
  rec.catalog = catalog.stats();
  rec.gate = catalog.gate_stats();
  return rec;
}

std::uint64_t scenario_seed(std::uint64_t seed, int index) {
  common::Rng rng(seed);
  std::uint64_t s = 0;
  for (int i = 0; i <= index; ++i) {
    s = rng.next();
  }
  return s;
}

}  // namespace

Result run_now100_churn(const Options& options) {
  Result result;
  const simnet::ChurnSpec spec = simnet::parse_churn_spec(kScenario);
  LatencyHistogram latency;
  std::vector<ScenarioRecord> played;
  int index = 0;
  const auto scenario = [&] {
    played.push_back(play(spec, scenario_seed(options.seed, index % kCycle),
                          result, latency));
    ++index;
  };
  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  repeat_for(untraced_seconds, kCycle, scenario);

  // Virtual-clock and count figures: the first cycle of scenarios.
  std::vector<double> check_period;
  std::vector<double> stale;
  std::vector<double> remap_virtual;
  LayerCounts counts;
  double ticks = 0;
  for (int i = 0; i < kCycle; ++i) {
    const ScenarioRecord& r = played[static_cast<std::size_t>(i)];
    check_period.insert(check_period.end(), r.check_period_ms.begin(),
                        r.check_period_ms.end());
    stale.insert(stale.end(), r.stale_ms.begin(), r.stale_ms.end());
    remap_virtual.insert(remap_virtual.end(), r.remap_virtual_ms.begin(),
                         r.remap_virtual_ms.end());
    ticks += static_cast<double>(r.tick_ms.size());
    counts.messages += static_cast<double>(r.messages);
    counts.wire_traversals += static_cast<double>(r.wire_traversals);
    counts.routes_checked_per_tick += static_cast<double>(r.routes_checked);
    counts.remap_incremental += static_cast<double>(r.remap_incremental);
    counts.remap_full += static_cast<double>(r.remap_full);
    counts.remap_escalated += static_cast<double>(r.remap_escalated);
    counts.remap_incremental_tried +=
        static_cast<double>(r.remap_incremental_tried);
    counts.remap_probes += static_cast<double>(r.remap_probes);
    counts.gate_fast += static_cast<double>(r.gate.incremental_fast);
    counts.gate_escalated += static_cast<double>(r.gate.incremental_escalated);
    counts.checker_rejections += static_cast<double>(r.gate.checker_rejections);
    counts.divergences += static_cast<double>(r.gate.paranoid_divergences);
    counts.catalog_published += static_cast<double>(r.catalog.published);
    counts.catalog_rejected_unsafe +=
        static_cast<double>(r.catalog.rejected_unsafe);
    counts.catalog_rejected_stale +=
        static_cast<double>(r.catalog.rejected_stale);
  }

  std::vector<double> tick_ms;
  std::vector<double> remap_tick_ms;
  std::vector<double> setup_s;
  double queries = 0;
  double reader_seconds = 0;
  for (const ScenarioRecord& r : played) {
    tick_ms.insert(tick_ms.end(), r.tick_ms.begin(), r.tick_ms.end());
    remap_tick_ms.insert(remap_tick_ms.end(), r.remap_tick_ms.begin(),
                         r.remap_tick_ms.end());
    setup_s.push_back(r.setup_s);
    queries += static_cast<double>(r.queries);
    reader_seconds += r.reader_seconds;
  }

  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.epoch_wall_ms_p50 = median(remap_tick_ms);
    e2e.map_virtual_ms = mean(remap_virtual);
    e2e.map_probes =
        ratio(counts.remap_probes, static_cast<double>(remap_virtual.size()));
    e2e.stale_virtual_ms = stale;
    add_end_to_end(result, e2e);
    return result;
  }

  counts.tick_wall_ms_p50 = quantile(tick_ms, 0.5);
  counts.tick_wall_ms_p99 = quantile(tick_ms, 0.99);
  counts.check_period_virtual_ms = mean(check_period);
  counts.query_p50_us = latency.quantile(0.5) / 1e3;
  counts.query_p99_us = latency.quantile(0.99) / 1e3;
  counts.query_kqps = ratio(queries, reader_seconds) / 1e3;
  const double untraced_tick_ms = median(tick_ms);
  const std::size_t untraced_played = played.size();
  reset_trace();
  set_tracing(true);
  repeat_for(options.seconds / 2, 1, scenario);
  set_tracing(false);

  std::vector<double> traced_tick_ms;
  std::vector<double> observe_ms;
  std::vector<double> remap_ms;
  double traced_ticks = 0;
  double traced_scenarios = 0;
  for (std::size_t p = untraced_played; p < played.size(); ++p) {
    const ScenarioRecord& r = played[p];
    traced_ticks += static_cast<double>(r.tick_ms.size());
    for (std::size_t t = 0; t < r.tick_ms.size(); ++t) {
      traced_tick_ms.push_back(r.tick_ms[t]);
      (r.tick_remapped[t] ? remap_ms : observe_ms).push_back(r.tick_ms[t]);
    }
    counts.query_misses += static_cast<double>(r.misses);
    counts.query_degraded += static_cast<double>(r.degraded);
    ++traced_scenarios;
  }
  counts.query_misses /= traced_scenarios;
  counts.query_degraded /= traced_scenarios;
  const double cycle = kCycle;
  counts.ops = traced_ticks;
  counts.messages /= ticks;
  counts.wire_traversals /= ticks;
  counts.routes_checked_per_tick /= ticks;
  for (double* per_scenario :
       {&counts.remap_incremental, &counts.remap_full, &counts.remap_escalated,
        &counts.remap_incremental_tried, &counts.remap_probes,
        &counts.gate_fast, &counts.gate_escalated, &counts.checker_rejections,
        &counts.divergences, &counts.catalog_published,
        &counts.catalog_rejected_unsafe, &counts.catalog_rejected_stale}) {
    *per_scenario /= cycle;
  }
  counts.stale_max_virtual_ms = quantile(stale, 1.0);
  counts.tick_observe_wall_ms = median(observe_ms);
  counts.tick_remap_wall_ms = median(remap_ms);
  counts.untraced_op_ms = untraced_tick_ms;
  counts.traced_op_ms = median(traced_tick_ms);
  add_layer_metrics(result, counts);
  finish_trace(options);
  return result;
}

}  // namespace perfbench
