// Churn soak: the refresh loop serving through a long-horizon churn
// scenario (the churn-hardened-serving ISSUE's acceptance bench).
//
// One ChurnGenerator scenario — rolling switch maintenance, a correlated
// outage, a flapping burst, host leave/rejoin — is compiled into a fault
// schedule and played against the RefreshLoop twice: once with the
// incremental dirty-region rung enabled (the system under test) and once
// forced to full remaps (the baseline the paper's §5.5 pipeline would do).
// Identical spec + seed give an identical schedule, so the two runs face
// the same fabric history.
//
// Per tick the bench also plays route queries against the catalog the way a
// NIC would, timing each answer, so the soak reports what readers actually
// experienced: p99 query latency, observable stale age, degraded answers
// during quarantine.
//
// Self-gating (exit 1 on failure):
//  * probes per incremental-published epoch < 50% of the full-remap
//    baseline's probes per epoch (the single-region fault epochs are
//    exactly the epochs the incremental rung published);
//  * zero unsafe tables accepted from the loop's own publishes;
//  * at least one incremental publish and one degraded/stale interval, so
//    the scenario demonstrably exercised the escalation ladder.
//
// Results land in BENCH_churn.json. --smoke shrinks the scenario for CI.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "simnet/churn.hpp"

namespace {

using namespace sanmap;

// Wave spacing must dominate the fabric's remap timescale (a full remap of
// the soak fabric costs over a second of virtual time), or whole down/up
// windows pass unobserved inside one remap session.
constexpr const char* kDefaultSpec =
    "rolling(start=1s,every=5s,down=2s,count=8);"
    "outage(at=22s,switches=2,down=3s);"
    "flapburst(at=30s,span=3s,period=150,duty=0.5,wires=2);"
    "hostchurn(start=3s,every=5s,down=2s,count=6)";

constexpr const char* kSmokeSpec =
    "rolling(start=500,every=4s,down=1500,count=3);"
    "hostchurn(start=2500,every=4s,down=1500,count=3)";

struct SoakResult {
  // Publish accounting (bootstrap excluded).
  int incremental_epochs = 0;
  int full_epochs = 0;
  int escalations = 0;
  std::uint64_t incremental_probes = 0;
  std::uint64_t full_probes = 0;
  // Damper / degraded accounting.
  int backoff_ticks = 0;
  int degraded_ticks = 0;
  std::uint64_t rejected_unsafe = 0;
  // Stale intervals: virtual time from breakage detection to the publish
  // that restored kFresh.
  std::vector<double> stale_windows_ms;
  // Wall-clock per-query latencies (ns) and reader-visible outcomes.
  std::vector<double> query_ns;
  std::uint64_t answers = 0;
  std::uint64_t degraded_answers = 0;
  double max_stale_age_ms = 0.0;

  [[nodiscard]] double probes_per_incremental_epoch() const {
    return incremental_epochs == 0
               ? 0.0
               : static_cast<double>(incremental_probes) / incremental_epochs;
  }
  [[nodiscard]] double probes_per_full_epoch() const {
    return full_epochs == 0
               ? 0.0
               : static_cast<double>(full_probes) / full_epochs;
  }
};

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  return samples[idx];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size());
}

SoakResult soak(const topo::Topology& t, const simnet::ChurnSpec& spec,
                std::uint64_t seed, bool incremental, int ticks,
                common::SimTime interval,
                const std::vector<service::RouteQuery>& queries) {
  simnet::Network net(t);
  service::MapCatalog catalog;
  service::RefreshConfig config;
  config.master_name = t.name(bench::mapper_host_of(t));
  config.check_interval = interval;
  config.incremental = incremental;
  service::RefreshLoop loop(net, catalog, config);
  const service::RouteQueryEngine engine(catalog);

  SoakResult result;
  loop.bootstrap();
  // Clause instants are relative to "service up": anchor the scenario after
  // the bootstrap remap, which eats over a second of virtual time. Both
  // runs bootstrap identically, so they compile identical schedules.
  const simnet::FaultSchedule schedule =
      simnet::ChurnGenerator(spec.shifted(loop.now()), seed)
          .compile(t, {bench::mapper_host_of(t)});
  net.attach_faults(&schedule);

  bool in_stale = false;
  common::SimTime stale_start{};
  common::SimTime prev_at = loop.now();
  for (int i = 0; i < ticks; ++i) {
    const auto report = loop.tick();
    if (report.swapped()) {
      if (report.remap == service::RemapKind::kIncremental) {
        ++result.incremental_epochs;
        result.incremental_probes += report.probes_used;
      } else if (report.remap == service::RemapKind::kFull) {
        ++result.full_epochs;
        result.full_probes += report.probes_used;
      }
    }
    result.escalations += report.escalated ? 1 : 0;
    result.backoff_ticks += report.backoff_active ? 1 : 0;
    result.degraded_ticks +=
        report.health == service::MapCatalog::HealthState::kDegraded ? 1 : 0;

    // Stale interval bookkeeping: breakage is detected at the tick's check
    // instant (one interval past the previous tick's end) and the interval
    // closes when a publish restores kFresh — usually within the same tick
    // (the remap duration), longer when backoff or degraded serving spans
    // ticks.
    const bool fresh =
        report.health == service::MapCatalog::HealthState::kFresh;
    if (!in_stale && report.broken > 0) {
      in_stale = true;
      stale_start = prev_at + interval;
    }
    if (in_stale && fresh) {
      in_stale = false;
      result.stale_windows_ms.push_back(
          static_cast<double>((report.at - stale_start).to_ns()) / 1e6);
    }
    prev_at = report.at;

    // Reader-side sampling: one timed pass over the query list per tick.
    for (const auto& q : queries) {
      const auto start = std::chrono::steady_clock::now();
      const auto answer = engine.route(q.src, q.dst);
      result.query_ns.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      ++result.answers;
      if (answer.status == service::QueryStatus::kDegraded) {
        ++result.degraded_answers;
      }
      result.max_stale_age_ms =
          std::max(result.max_stale_age_ms,
                   static_cast<double>(answer.stale_age.to_ns()) / 1e6);
    }
  }
  result.rejected_unsafe = catalog.stats().rejected_unsafe;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("spec", "", "churn spec (grammar: see src/simnet/churn.hpp); "
                           "empty picks the built-in soak scenario");
  flags.define("seed", "1", "churn compilation seed");
  flags.define("interval-ms", "50", "virtual time between health checks");
  flags.define("ticks", "0", "soak length in ticks (0: horizon + 10%)");
  flags.define("smoke", "false",
               "CI-sized scenario (small fabric, short horizon)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");

  const topo::Topology t =
      smoke ? topo::torus(3, 3, 1) : topo::torus(4, 4, 2);
  std::string spec_text = flags.get("spec");
  if (spec_text.empty()) {
    spec_text = smoke ? kSmokeSpec : kDefaultSpec;
  }
  const simnet::ChurnSpec spec = simnet::parse_churn_spec(spec_text);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const topo::NodeId master = bench::mapper_host_of(t);
  // Unshifted compile just for the event count (shifting moves instants,
  // not targets).
  const simnet::FaultSchedule preview =
      simnet::ChurnGenerator(spec, seed).compile(t, {master});

  const auto interval = common::SimTime::ms(flags.get_int("interval-ms"));
  const common::SimTime horizon = spec.horizon(t.num_switches());
  int ticks = static_cast<int>(flags.get_int("ticks"));
  if (ticks == 0) {
    ticks = static_cast<int>(horizon.to_ns() / interval.to_ns()) + 1;
    ticks += ticks / 10 + 5;  // run past the horizon so the fabric settles
  }

  std::vector<service::RouteQuery> queries;
  const auto hosts = t.hosts();
  for (const topo::NodeId a : hosts) {
    for (const topo::NodeId b : hosts) {
      if (a != b && queries.size() < 64) {
        queries.push_back({t.name(a), t.name(b)});
      }
    }
  }

  std::cout << "== churn soak ==\n"
            << "fabric " << t.num_switches() << " switches / " << t.num_hosts()
            << " hosts, spec \"" << to_string(spec) << "\" seed " << seed
            << "\nhorizon " << horizon.str() << " past bootstrap, " << ticks
            << " ticks of " << interval.str() << ", " << preview.events()
            << " compiled fault events\n\n";

  const SoakResult inc = soak(t, spec, seed, true, ticks, interval, queries);
  const SoakResult full =
      soak(t, spec, seed, false, ticks, interval, queries);

  const double inc_cost = inc.probes_per_incremental_epoch();
  const double full_cost = full.probes_per_full_epoch();
  const double ratio = full_cost > 0.0 ? inc_cost / full_cost : 1.0;

  common::Table table({"what", "incremental run", "full-remap run"});
  table.add_row({"epochs published (inc / full rung)",
                 std::to_string(inc.incremental_epochs) + " / " +
                     std::to_string(inc.full_epochs),
                 "0 / " + std::to_string(full.full_epochs)});
  table.add_row({"probes per published epoch",
                 common::fmt(inc_cost, 1) + " (inc rung)",
                 common::fmt(full_cost, 1)});
  table.add_row({"escalations to full remap",
                 std::to_string(inc.escalations),
                 std::to_string(full.escalations)});
  table.add_row({"backoff-damped ticks", std::to_string(inc.backoff_ticks),
                 std::to_string(full.backoff_ticks)});
  table.add_row({"degraded ticks", std::to_string(inc.degraded_ticks),
                 std::to_string(full.degraded_ticks)});
  table.add_row({"stale intervals (mean / max ms)",
                 common::fmt(mean(inc.stale_windows_ms), 2) + " / " +
                     common::fmt(percentile(inc.stale_windows_ms, 1.0), 2),
                 common::fmt(mean(full.stale_windows_ms), 2) + " / " +
                     common::fmt(percentile(full.stale_windows_ms, 1.0), 2)});
  table.add_row({"query p50 / p99 (us)",
                 common::fmt(percentile(inc.query_ns, 0.5) / 1e3, 2) + " / " +
                     common::fmt(percentile(inc.query_ns, 0.99) / 1e3, 2),
                 common::fmt(percentile(full.query_ns, 0.5) / 1e3, 2) + " / " +
                     common::fmt(percentile(full.query_ns, 0.99) / 1e3, 2)});
  table.add_row({"degraded answers / total",
                 std::to_string(inc.degraded_answers) + " / " +
                     std::to_string(inc.answers),
                 std::to_string(full.degraded_answers) + " / " +
                     std::to_string(full.answers)});
  table.add_row({"max observed stale age (ms)",
                 common::fmt(inc.max_stale_age_ms, 2),
                 common::fmt(full.max_stale_age_ms, 2)});
  table.add_row({"unsafe tables accepted",
                 std::to_string(inc.rejected_unsafe),
                 std::to_string(full.rejected_unsafe)});
  std::cout << table << "\nincremental / full probe ratio: "
            << common::fmt(ratio, 3) << " (gate: < 0.5)\n";

  bench::JsonReport json("churn");
  json.add("scenario", "horizon_ms",
           static_cast<double>(horizon.to_ns()) / 1e6);
  json.add("scenario", "ticks", ticks);
  json.add("scenario", "fault_events",
           static_cast<double>(preview.events()));
  json.add("incremental", "incremental_epochs", inc.incremental_epochs);
  json.add("incremental", "full_epochs", inc.full_epochs);
  json.add("incremental", "escalations", inc.escalations);
  json.add("incremental", "probes_per_incremental_epoch", inc_cost);
  json.add("incremental", "backoff_ticks", inc.backoff_ticks);
  json.add("incremental", "degraded_ticks", inc.degraded_ticks);
  json.add("incremental", "rejected_unsafe",
           static_cast<double>(inc.rejected_unsafe));
  json.add("incremental", "stale_window_mean_ms",
           mean(inc.stale_windows_ms));
  json.add("incremental", "stale_window_max_ms",
           percentile(inc.stale_windows_ms, 1.0));
  json.add("incremental", "query_p50_us",
           percentile(inc.query_ns, 0.5) / 1e3);
  json.add("incremental", "query_p99_us",
           percentile(inc.query_ns, 0.99) / 1e3);
  json.add("incremental", "degraded_answers",
           static_cast<double>(inc.degraded_answers));
  json.add("incremental", "max_stale_age_ms", inc.max_stale_age_ms);
  json.add("full", "full_epochs", full.full_epochs);
  json.add("full", "probes_per_full_epoch", full_cost);
  json.add("full", "query_p99_us", percentile(full.query_ns, 0.99) / 1e3);
  json.add("gate", "probe_ratio", ratio);
  json.write();

  bool failed = false;
  if (inc.incremental_epochs == 0) {
    std::cerr << "GATE: no epoch was published by the incremental rung\n";
    failed = true;
  }
  if (full.full_epochs == 0) {
    std::cerr << "GATE: baseline run published no full-remap epoch\n";
    failed = true;
  }
  if (ratio >= 0.5) {
    std::cerr << "GATE: incremental epochs cost " << common::fmt(ratio, 3)
              << "x the full-remap baseline (need < 0.5)\n";
    failed = true;
  }
  if (inc.rejected_unsafe != 0 || full.rejected_unsafe != 0) {
    std::cerr << "GATE: the loop offered an unsafe table to the catalog\n";
    failed = true;
  }
  if (inc.stale_windows_ms.empty()) {
    std::cerr << "GATE: soak saw no stale interval — churn never bit\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
