#include "mapper/parallel_mapper.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"

namespace sanmap::mapper {

ParallelMapper::ParallelMapper(simnet::Network& net, ParallelConfig config)
    : net_(&net), config_(std::move(config)) {
  SANMAP_CHECK_MSG(!config_.mappers.empty(),
                   "parallel mapping needs at least one mapper host");
  for (const LocalMapper& m : config_.mappers) {
    SANMAP_CHECK(m.depth >= 1);
    SANMAP_CHECK(net.topology().node_alive(m.host) &&
                 net.topology().is_host(m.host));
  }
}

ParallelConfig regional_config(const RegionPlan& plan) {
  ParallelConfig config;
  config.mappers.reserve(plan.regions.size());
  for (const Region& region : plan.regions) {
    config.mappers.push_back({region.mapper, region.depth});
  }
  config.pipeline_window = kRegionalPipelineWindow;
  return config;
}

ParallelMapResult ParallelMapper::run() {
  ParallelMapResult result;
  std::vector<topo::Topology> partials;
  partials.reserve(config_.mappers.size());

  // Two levels of concurrency. Across mappers: the local mappers run
  // simultaneously on their own hosts and, on the shared (quiescent)
  // fabric, their probes do not interact in our collision models — so we
  // execute them sequentially and take the max of their times. Within each
  // mapper: with pipeline_window >= 2 the local exploration itself keeps a
  // bounded window of probes in flight (probe::ProbePipeline), so each
  // local time is a genuinely overlapped-window time, not a serial sum.
  for (const LocalMapper& mapper : config_.mappers) {
    probe::ProbeEngine engine(*net_, mapper.host);
    MapperConfig config;
    config.search_depth = mapper.depth;
    config.port_order_heuristic = config_.port_order_heuristic;
    config.skip_known_ports = config_.skip_known_ports;
    config.pipeline_window = config_.pipeline_window;
    MapResult local = BerkeleyMapper(engine, config).run();
    result.locals.push_back(ParallelMapResult::Local{
        mapper.host, local.elapsed, local.probes.total(),
        local.map.num_nodes()});
    result.total_probes += local.probes.total();
    result.elapsed = std::max(result.elapsed, local.elapsed);
    partials.push_back(std::move(local.map));
  }

  result.map = merge_partial_maps(partials, &result.merge);
  result.elapsed += config_.merge_cost_per_vertex *
                    static_cast<std::int64_t>(result.merge.loaded_vertices);
  return result;
}

}  // namespace sanmap::mapper
