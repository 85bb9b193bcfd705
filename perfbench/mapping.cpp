#include "mapping.hpp"

#include <optional>

#include "probe/probe_engine.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sanmap;

Session map_session(const topo::Topology& fabric, topo::NodeId master,
                    int search_depth) {
  std::optional<simnet::Network> net;
  {
    const Span span(sites::simnet_network);
    net.emplace(fabric);
  }
  probe::ProbeEngine engine(*net, master);
  mapper::MapperConfig config;
  config.search_depth = search_depth;
  Session session;
  session.result = mapper::BerkeleyMapper(engine, config).run();
  session.network = net->counters();
  return session;
}

bool same_counts(const Session& a, const Session& b) {
  const mapper::MapResult& x = a.result;
  const mapper::MapResult& y = b.result;
  return x.probes == y.probes && x.elapsed == y.elapsed &&
         x.explorations == y.explorations && x.merges == y.merges &&
         x.pruned == y.pruned &&
         x.peak_model_vertices == y.peak_model_vertices &&
         a.network.messages == b.network.messages &&
         a.network.wire_traversals == b.network.wire_traversals;
}

void count_session(LayerCounts& counts, const Session& session) {
  const mapper::MapResult& r = session.result;
  counts.messages += static_cast<double>(session.network.messages);
  counts.wire_traversals +=
      static_cast<double>(session.network.wire_traversals);
  counts.host_probes += static_cast<double>(r.probes.host_probes);
  counts.host_hits += static_cast<double>(r.probes.host_hits);
  counts.switch_probes += static_cast<double>(r.probes.switch_probes);
  counts.switch_hits += static_cast<double>(r.probes.switch_hits);
  counts.explorations += static_cast<double>(r.explorations);
  counts.merges += static_cast<double>(r.merges);
  counts.pruned += static_cast<double>(r.pruned);
  counts.peak_model_vertices += static_cast<double>(r.peak_model_vertices);
  counts.mapped_switches += static_cast<double>(r.map.num_switches());
}

}  // namespace perfbench
