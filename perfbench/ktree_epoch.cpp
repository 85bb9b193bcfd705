// ktree-epoch: repeated cold epochs on a 4-ary 4-tree.
//
// One epoch is the full pipeline a mapper host runs after a reboot:
//   1. BerkeleyMapper::run on a fresh network
//   2. service::build_snapshot (all-pairs routes + deadlock analysis)
//   3. MapCatalog::publish through the kFull safety gate
//   4. encode_snapshot / decode_snapshot
//   5. one RouteQueryEngine::run_batch over every host pair, 3 pool threads
// followed, outside the epoch's time, by single route() queries for the
// latency percentiles and by the output checks.
#include <map>
#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fabrics.hpp"
#include "mapping.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "topology/algorithms.hpp"
#include "topology/isomorphism.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sanmap;

namespace {

constexpr int kArity = 4;
constexpr int kLevels = 4;
// With the main thread, which waits on the batch, four threads in all.
constexpr std::size_t kPoolThreads = 3;
constexpr std::size_t kPointQueries = 4096;

struct Setup {
  topo::Topology fabric;
  topo::Topology core;
  topo::NodeId master = topo::kInvalidNode;
  int search_depth = 0;
  std::vector<service::RouteQuery> queries;        // every ordered pair
  std::vector<service::RouteQuery> point_queries;  // a seeded sample
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  {
    const Span span(sites::topology_build);
    s.fabric = k_ary_n_tree(kArity, kLevels, seed);
  }
  common::Rng rng(seed);
  const std::vector<topo::NodeId> hosts = s.fabric.hosts();
  s.master = hosts[rng.below(hosts.size())];
  s.core = topo::core(s.fabric);
  s.search_depth = topo::search_depth(s.fabric, s.master);
  for (const topo::NodeId a : hosts) {
    for (const topo::NodeId b : hosts) {
      if (a != b) {
        s.queries.push_back({s.fabric.name(a), s.fabric.name(b)});
      }
    }
  }
  for (std::size_t i = 0; i < kPointQueries; ++i) {
    s.point_queries.push_back(s.queries[rng.below(s.queries.size())]);
  }
  return s;
}

struct Epoch {
  Session session;
  service::MapCatalog::PublishResult publish;
  service::SnapshotPtr published;
  std::string bytes;
  std::optional<service::MapSnapshot> decoded;
  std::unique_ptr<service::MapCatalog> catalog;
  std::vector<service::RouteAnswer> answers;
  double wall_ms = 0.0;
  double batch_ms = 0.0;
};

Epoch run_epoch(const Setup& s, common::ThreadPool& pool) {
  Epoch e;
  const Operation op;
  const std::int64_t start = now_ns();
  e.session = map_session(s.fabric, s.master, s.search_depth);
  service::SnapshotOptions options;
  options.source = "perfbench";
  service::MapSnapshot snapshot = service::build_snapshot(
      e.session.result.map, options, e.session.result.elapsed);
  e.catalog = std::make_unique<service::MapCatalog>();
  e.publish = e.catalog->publish(std::move(snapshot));
  e.published = e.catalog->current();
  if (e.published) {
    e.bytes = service::encode_snapshot(*e.published);
    e.decoded = service::decode_snapshot(e.bytes);
  }
  const service::RouteQueryEngine engine(*e.catalog);
  const std::int64_t batch_start = now_ns();
  e.answers = engine.run_batch(s.queries, pool);
  const std::int64_t end = now_ns();
  e.batch_ms = to_ms(static_cast<double>(end - batch_start));
  e.wall_ms = to_ms(static_cast<double>(end - start));
  return e;
}

bool same_route(const routing::HostRoute& a, const routing::HostRoute& b) {
  return a.turns == b.turns && a.nodes == b.nodes && a.wires == b.wires;
}

/// Every output check of one epoch, each counted as an attempted operation.
void check_epoch(const Setup& s, const Epoch& e, Result& result) {
  const Untraced untraced;
  // Theorem 1: the map is the core of the fabric.
  result.check(topo::isomorphic(e.session.result.map, s.core),
               "Theorem 1: map isomorphic to the fabric's core");
  // The published snapshot is certified.
  const bool certified = e.publish.published() && e.published &&
                         e.published->deadlock_free &&
                         e.published->compliant;
  result.check(certified, "published snapshot is deadlock-free and compliant");
  if (!e.published || !e.decoded) {
    result.check(false, "snapshot published and decoded");
    return;
  }
  const service::MapSnapshot& snap = *e.published;
  // Codec round trip: the same map and the same routes.
  bool round_trip = e.decoded->map.structurally_equal(snap.map) &&
                    e.decoded->routes.routes.size() ==
                        snap.routes.routes.size();
  if (round_trip) {
    auto it = e.decoded->routes.routes.begin();
    for (const auto& [pair, route] : snap.routes.routes) {
      if (it->first != pair || !same_route(it->second, route)) {
        round_trip = false;
        break;
      }
      ++it;
    }
  }
  result.check(round_trip, "routes identical after encode and decode");
  // Every query is answered with the snapshot's own route.
  std::map<std::string, topo::NodeId> id_of;
  for (const topo::NodeId h : snap.map.hosts()) {
    id_of[snap.map.name(h)] = h;
  }
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    const service::RouteAnswer& a = e.answers[i];
    const auto src = id_of.find(s.queries[i].src);
    const auto dst = id_of.find(s.queries[i].dst);
    const bool ok = a.status == service::QueryStatus::kOk &&
                    a.epoch == snap.epoch && src != id_of.end() &&
                    dst != id_of.end() &&
                    a.turns == snap.routes.route(src->second, dst->second).turns;
    wrong += ok ? 0 : 1;
  }
  result.count(s.queries.size(), wrong,
               "batch answer equals the snapshot's route");
}

}  // namespace

Result run_ktree_epoch(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  std::optional<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    s.emplace(set_up(options.seed));
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  common::ThreadPool pool(kPoolThreads);

  std::optional<Session> first;
  std::vector<double> epoch_ms;
  std::vector<double> batch_kqps;
  LatencyHistogram point_latency;
  double bytes = 0.0;
  std::size_t routes = 0;
  const auto epoch = [&] {
    const Epoch e = run_epoch(*s, pool);
    epoch_ms.push_back(e.wall_ms);
    batch_kqps.push_back(static_cast<double>(s->queries.size()) / e.batch_ms);
    // Single queries against the large static table, one at a time.
    const service::RouteQueryEngine engine(*e.catalog);
    std::uint64_t refused = 0;
    for (const service::RouteQuery& q : s->point_queries) {
      const std::int64_t start = now_ns();
      const service::RouteAnswer a = engine.route(q.src, q.dst);
      point_latency.add(static_cast<std::uint64_t>(now_ns() - start));
      refused += a.status == service::QueryStatus::kOk ? 0 : 1;
    }
    result.count(s->point_queries.size(), refused, "point query answered");
    check_epoch(*s, e, result);
    if (!first) {
      first = e.session;
      bytes = static_cast<double>(e.bytes.size());
      routes = e.published ? e.published->routes.routes.size() : 0;
    } else {
      // The simulation is deterministic: every epoch maps identically.
      result.check(same_counts(*first, e.session),
                   "every epoch maps with the same counts");
    }
  };

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  repeat_for(untraced_seconds, 3, epoch);
  const double untraced_epoch_ms = median(epoch_ms);

  if (!options.trace) {
    const mapper::MapResult& m = first->result;
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.epoch_wall_ms_p50 = untraced_epoch_ms;
    e2e.map_virtual_ms = m.elapsed.to_ms();
    e2e.map_probes = static_cast<double>(m.probes.total());
    e2e.stale_virtual_ms = {m.elapsed.to_ms()};
    add_end_to_end(result, e2e);
    return result;
  }

  LayerCounts counts;
  counts.query_p50_us = point_latency.quantile(0.5) / 1e3;
  counts.query_p99_us = point_latency.quantile(0.99) / 1e3;
  counts.query_kqps = median(batch_kqps);
  epoch_ms.clear();
  reset_trace();
  set_tracing(true);
  const int traced = repeat_for(options.seconds / 2, 3, epoch);
  set_tracing(false);
  counts.ops = traced;
  count_session(counts, *first);
  counts.routes = static_cast<double>(routes);
  counts.snapshot_bytes = bytes;
  counts.catalog_published = 1;
  counts.untraced_op_ms = untraced_epoch_ms;
  counts.traced_op_ms = median(epoch_ms);
  add_layer_metrics(result, counts);
  finish_trace(options);
  return result;
}

}  // namespace perfbench
