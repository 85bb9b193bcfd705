// Distributed mapping (§6 future work): several hosts map small local
// regions concurrently and their partial maps are fused into one globally
// consistent view — the answer to §6's "central question" of merging local
// views, built from the algorithm's own host-anchored merge machinery.
//
//   ./distributed_mapping [--mappers N] [--depth N]
#include <algorithm>
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/parallel_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

int main(int argc, char** argv) {
  using namespace sanmap;
  common::Flags flags;
  flags.define("mappers", "10", "number of local mapper hosts");
  flags.define("depth", "6", "local exploration depth");
  flags.define("ring", "30", "ring size (the large-diameter demo network)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }

  // A large-diameter network is where locality pays: on the NOW (diameter
  // 8) a "local" ball is the whole fabric; on a 30-switch ring it is not.
  const topo::Topology network =
      topo::ring(static_cast<int>(flags.get_int("ring")), 1);
  const auto hosts = network.hosts();

  // Baseline: one global mapper.
  simnet::Network solo_net(network);
  probe::ProbeEngine solo_engine(solo_net, hosts.front());
  mapper::MapperConfig solo_config;
  solo_config.search_depth = topo::search_depth(network, hosts.front());
  const auto solo = mapper::BerkeleyMapper(solo_engine, solo_config).run();
  std::cout << "solo mapper    : " << solo.probes.total() << " probes, "
            << solo.elapsed.str() << " (depth "
            << solo_config.search_depth << ")\n";

  // Distributed: evenly spaced local mappers with small balls.
  simnet::Network net(network);
  mapper::ParallelConfig config;
  const auto count = std::min<std::size_t>(
      static_cast<std::size_t>(flags.get_int("mappers")), hosts.size());
  const int depth = static_cast<int>(flags.get_int("depth"));
  for (std::size_t i = 0; i < count; ++i) {
    config.mappers.push_back({hosts[i * hosts.size() / count], depth});
  }
  const auto result = mapper::ParallelMapper(net, config).run();

  common::Table table({"local mapper", "probes", "time (ms)", "partial map"});
  for (const auto& local : result.locals) {
    table.add_row({network.name(local.mapper),
                   std::to_string(local.probes),
                   common::fmt(local.elapsed.to_ms(), 1),
                   std::to_string(local.nodes) + " nodes"});
  }
  std::cout << table;
  std::cout << "merge          : " << result.merge.loaded_vertices
            << " partial vertices fused with " << result.merge.merges
            << " merges\n";
  std::cout << "parallel phase : " << result.total_probes
            << " total probes, wall " << result.elapsed.str()
            << " (max of locals + merge)\n";
  const bool ok = topo::isomorphic(result.map, topo::core(network));
  std::cout << "global map     : " << result.map.num_hosts() << "h/"
            << result.map.num_switches() << "s/" << result.map.num_wires()
            << "w — " << (ok ? "correct" : "WRONG") << "\n";
  std::cout << "speedup        : "
            << common::fmt(solo.elapsed.to_ms() / result.elapsed.to_ms(), 1)
            << "x over the solo mapper\n";
  return ok ? 0 : 1;
}
