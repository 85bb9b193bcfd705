// Map service under concurrent load (the map-catalog / query-engine ISSUE's
// acceptance scenario).
//
// Section 1 sweeps the route-query batch engine over 1/2/4/8 worker threads
// against one published snapshot and reports queries/sec and speedup. The
// acceptance target (>= 4x at 8 threads) needs real cores: the speedup is
// bounded by hardware_concurrency, which is recorded in the JSON so CI can
// gate on it only where the hardware allows.
//
// Section 2 is the torn-read hunt: readers hammer run_batch while a writer
// republishes freshly recomputed route tables (a remap per round) and
// periodically offers a table corrupted with a down-to-up turn. Every answer
// must come from a published epoch with a complete route; the corrupted
// tables must all bounce off the catalog's certifier.
//
// Results also land in BENCH_service.json (see JsonReport).
#include <chrono>
#include <iostream>
#include <set>
#include <thread>

#include "analysis/certificates.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"

namespace {

using namespace sanmap;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<service::RouteQuery> all_pairs_repeated(const topo::Topology& t,
                                                    std::size_t total) {
  std::vector<service::RouteQuery> queries;
  queries.reserve(total);
  const auto hosts = t.hosts();
  while (queries.size() < total) {
    for (const topo::NodeId a : hosts) {
      for (const topo::NodeId b : hosts) {
        if (a == b || queries.size() >= total) {
          continue;
        }
        queries.push_back({t.name(a), t.name(b)});
      }
    }
  }
  return queries;
}

void throughput_section(const topo::Topology& t,
                        const std::vector<service::RouteQuery>& queries,
                        bench::JsonReport& json) {
  service::MapCatalog catalog;
  catalog.publish(service::build_snapshot(t, {}, common::SimTime{}));
  const service::RouteQueryEngine engine(catalog);

  std::cout << "== batch route-query throughput ==\n"
            << queries.size() << " queries over "
            << catalog.current()->routes.routes.size()
            << " routes, chunk 256, best of 3 runs\n\n";
  common::Table table({"threads", "time", "queries/s", "speedup"});
  double base_qps = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    common::ThreadPool pool(threads);
    double best_qps = 0.0;
    for (int run = 0; run < 3; ++run) {
      const auto start = std::chrono::steady_clock::now();
      const auto answers = engine.run_batch(queries, pool, 256);
      const double elapsed = seconds_since(start);
      for (const auto& answer : answers) {
        if (!answer.found) {
          std::cerr << "MISSED QUERY — batch engine returned a non-answer\n";
          std::exit(1);
        }
      }
      best_qps = std::max(
          best_qps, static_cast<double>(queries.size()) / elapsed);
    }
    if (threads == 1) {
      base_qps = best_qps;
    }
    const double speedup = best_qps / base_qps;
    table.add_row({std::to_string(threads),
                   common::fmt(static_cast<double>(queries.size()) /
                                   best_qps * 1e3, 1) + " ms",
                   common::fmt(best_qps / 1e6, 2) + "M",
                   common::fmt(speedup, 2) + "x"});
    json.add("throughput",
             "qps_" + std::to_string(threads) + "_threads", best_qps);
    json.add("throughput",
             "speedup_" + std::to_string(threads) + "_threads", speedup);
  }
  std::cout << table << "\n";
}

void churn_section(const topo::Topology& t,
                   const std::vector<service::RouteQuery>& queries,
                   std::int64_t rounds, bench::JsonReport& json) {
  std::cout << "== queries during epoch churn ==\n"
            << rounds << " republishes (fresh route recompute each), every "
            << "3rd offered table corrupted with a down-to-up turn\n\n";
  service::MapCatalog catalog;
  catalog.publish(service::build_snapshot(t, {}, common::SimTime{}));
  const service::RouteQueryEngine engine(catalog);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::int64_t round = 1; round <= rounds; ++round) {
      const bool corrupt = round % 3 == 0;
      service::SnapshotOptions options;
      options.route_seed = static_cast<std::uint64_t>(round) + 1;
      options.source = corrupt ? "corrupted" : "remap";
      service::MapSnapshot next = service::build_snapshot(
          t, options, common::SimTime::ms(round));
      if (corrupt &&
          analysis::inject_down_up_turn(next.map, next.routes).empty()) {
        std::cerr << "CANNOT CORRUPT — no down-to-up detour in the fabric\n";
        std::exit(1);
      }
      // The writer knows which offers it corrupted: the certifier must
      // refuse every one of them, whatever readers happen to observe.
      if (catalog.publish_if_current(std::move(next), catalog.epoch())
              .published() &&
          corrupt) {
        std::cerr << "UNSAFE TABLE PUBLISHED — round " << round << "\n";
        std::exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true, std::memory_order_release);
  });

  common::ThreadPool pool(4);
  std::set<std::uint64_t> epochs_seen;
  std::uint64_t answered = 0;
  const auto start = std::chrono::steady_clock::now();
  while (!done.load(std::memory_order_acquire)) {
    const auto answers = engine.run_batch(queries, pool, 256);
    for (const auto& answer : answers) {
      if (!answer.found || answer.epoch == 0) {
        std::cerr << "TORN READ — answer without a published epoch\n";
        std::exit(1);
      }
      epochs_seen.insert(answer.epoch);
    }
    answered += answers.size();
  }
  const double elapsed = seconds_since(start);
  writer.join();

  const auto stats = catalog.stats();
  common::Table table({"what", "value"});
  table.add_row({"answers served",
                 std::to_string(answered) + " (all found, epoch-stamped)"});
  table.add_row({"queries/s during churn",
                 common::fmt(static_cast<double>(answered) / elapsed / 1e6,
                             2) + "M"});
  table.add_row({"epochs observed by readers",
                 std::to_string(epochs_seen.size())});
  table.add_row({"tables published", std::to_string(stats.published)});
  table.add_row({"unsafe tables rejected",
                 std::to_string(stats.rejected_unsafe)});
  std::cout << table << "\n";

  json.add("churn", "qps",
           static_cast<double>(answered) / elapsed);
  json.add("churn", "epochs_observed",
           static_cast<double>(epochs_seen.size()));
  json.add("churn", "published", static_cast<double>(stats.published));
  json.add("churn", "unsafe_rejected",
           static_cast<double>(stats.rejected_unsafe));
  if (stats.rejected_unsafe == 0 || epochs_seen.size() < 2) {
    // The run must demonstrate both the gate and at least one live swap.
    std::cerr << "CHURN SECTION DID NOT EXERCISE THE CATALOG\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("queries", "40000", "batch size for the throughput sweep");
  flags.define("churn-rounds", "12", "republishes in the churn section");
  if (!flags.parse(argc, argv)) {
    return 0;
  }

  const topo::Topology t = topo::torus(4, 4, 2);
  const auto queries = all_pairs_repeated(
      t, static_cast<std::size_t>(flags.get_int("queries")));

  bench::JsonReport json("service");
  json.add("env", "hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()));

  throughput_section(t, queries, json);
  churn_section(t, queries, flags.get_int("churn-rounds"), json);
  json.write();
  return 0;
}
