#include "service/query_engine.hpp"

#include <algorithm>

namespace sanmap::service {

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kNotFound:
      return "not-found";
    case QueryStatus::kDegraded:
      return "degraded";
  }
  return "?";
}

RouteAnswer RouteQueryEngine::route_on(const MapSnapshot& snapshot,
                                       const std::string& src,
                                       const std::string& dst,
                                       const MapCatalog::HealthStatus* health) {
  RouteAnswer answer;
  answer.epoch = snapshot.epoch;
  // Zero while fresh: a snapshot that passed its last health check still
  // describes the fabric, however old its build instant. Once the writer
  // downgraded health, the age of the snapshot relative to the last check
  // is exactly how far the fabric is known to have moved past it.
  if (health && health->state != MapCatalog::HealthState::kFresh) {
    answer.stale_age = std::max(common::SimTime{},
                                health->checked_at - snapshot.created_at);
  }
  const auto s = snapshot.map.find_host(src);
  const auto d = snapshot.map.find_host(dst);
  if (!s || !d || *s == *d) {
    return answer;
  }
  const auto it = snapshot.routes.routes.find({*s, *d});
  if (it == snapshot.routes.routes.end()) {
    return answer;
  }
  // Quarantine gate: a route whose path crosses the dirty region is
  // withheld — the service knows that region no longer matches the fabric.
  if (health && !health->quarantined.empty()) {
    for (const topo::NodeId n : it->second.nodes) {
      if (snapshot.map.is_switch(n) &&
          health->quarantines(snapshot.map.name(n))) {
        answer.status = QueryStatus::kDegraded;
        return answer;
      }
    }
  }
  answer.found = true;
  answer.status = QueryStatus::kOk;
  answer.hops = it->second.hops();
  answer.turns = it->second.turns;
  return answer;
}

RouteAnswer RouteQueryEngine::route(const std::string& src,
                                    const std::string& dst) const {
  served_.fetch_add(1, std::memory_order_relaxed);
  const SnapshotPtr snapshot = catalog_->current();
  if (!snapshot) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return RouteAnswer{};
  }
  const MapCatalog::HealthPtr health = catalog_->health();
  RouteAnswer answer = route_on(*snapshot, src, dst, health.get());
  if (!answer.found) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (answer.status == QueryStatus::kDegraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return answer;
}

bool RouteQueryEngine::reachable(const std::string& src,
                                 const std::string& dst) const {
  return route(src, dst).found;
}

FabricStats RouteQueryEngine::stats() const {
  const SnapshotPtr snapshot = catalog_->current();
  if (!snapshot) {
    return FabricStats{};
  }
  FabricStats stats;
  stats.epoch = snapshot->epoch;
  stats.hosts = snapshot->map.num_hosts();
  stats.switches = snapshot->map.num_switches();
  stats.wires = snapshot->map.num_wires();
  stats.routes = snapshot->routes.routes.size();
  stats.mean_hops = snapshot->routes.mean_hops();
  stats.max_hops = snapshot->routes.max_hops();
  return stats;
}

std::vector<RouteAnswer> RouteQueryEngine::run_batch(
    const std::vector<RouteQuery>& queries, common::ThreadPool& pool,
    std::size_t chunk_size) const {
  std::vector<RouteAnswer> answers(queries.size());
  if (queries.empty()) {
    return answers;
  }
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const std::size_t chunks = (queries.size() + chunk_size - 1) / chunk_size;
  pool.parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * chunk_size;
    const std::size_t end = std::min(begin + chunk_size, queries.size());
    // One snapshot + health acquisition per chunk: answers within a chunk
    // share an epoch; answers across chunks may straddle a republish.
    const SnapshotPtr snapshot = catalog_->current();
    const MapCatalog::HealthPtr health = catalog_->health();
    std::uint64_t chunk_misses = 0;
    std::uint64_t chunk_degraded = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (snapshot) {
        answers[i] =
            route_on(*snapshot, queries[i].src, queries[i].dst, health.get());
      }
      if (!answers[i].found) {
        ++chunk_misses;
        if (answers[i].status == QueryStatus::kDegraded) {
          ++chunk_degraded;
        }
      }
    }
    served_.fetch_add(end - begin, std::memory_order_relaxed);
    misses_.fetch_add(chunk_misses, std::memory_order_relaxed);
    degraded_.fetch_add(chunk_degraded, std::memory_order_relaxed);
  });
  return answers;
}

}  // namespace sanmap::service
