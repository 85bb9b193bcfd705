// banded-map: repeated cold Berkeley mapping sessions on the banded fat tree.
//
// The long-diameter stress case: bench_scaling's four-level tapered fat tree
// at about 2k switches, whose upper levels form a band, so a probe crosses
// tens to hundreds of wires. Each session maps the fabric from a seeded
// master host and is checked against Theorem 1; no route table is built.
#include <optional>

#include "common/rng.hpp"
#include "fabrics.hpp"
#include "mapping.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace sanmap;

namespace {

constexpr int kSwitches = 2000;

struct Setup {
  topo::Topology fabric;
  topo::Topology core;
  topo::NodeId master = topo::kInvalidNode;
  int search_depth = 0;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  {
    const Span span(sites::topology_build);
    s.fabric = banded_fat_tree(kSwitches);
  }
  const std::vector<topo::NodeId> hosts = s.fabric.hosts();
  common::Rng rng(seed);
  s.master = hosts[rng.below(hosts.size())];
  s.core = topo::core(s.fabric);
  // The analytic bound bench_scaling uses: exact Q + D is quadratic-plus at
  // this size, and a generous depth sends no extra probes.
  s.search_depth = topo::generous_search_depth(s.fabric);
  return s;
}

}  // namespace

Result run_banded_map(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  std::optional<Setup> s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    s.emplace(set_up(options.seed));
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  std::optional<Session> first;
  std::vector<double> map_ms;
  const auto session = [&] {
    std::int64_t start = 0;
    std::optional<Session> m;
    {
      const Operation op;
      start = now_ns();
      m.emplace(map_session(s->fabric, s->master, s->search_depth));
      map_ms.push_back(to_ms(static_cast<double>(now_ns() - start)));
    }
    {
      const Untraced untraced;
      result.check(topo::isomorphic(m->result.map, s->core),
                   "Theorem 1: map isomorphic to the fabric's core");
    }
    if (!first) {
      first = std::move(m);
    } else {
      result.check(same_counts(*first, *m),
                   "every session maps with the same counts");
    }
  };

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  repeat_for(untraced_seconds, 3, session);
  const double untraced_ms = median(map_ms);

  if (!options.trace) {
    const mapper::MapResult& m = first->result;
    EndToEnd e2e;
    e2e.setup_s = median(setup_s);
    e2e.epoch_wall_ms_p50 = untraced_ms;
    e2e.map_virtual_ms = m.elapsed.to_ms();
    e2e.map_probes = static_cast<double>(m.probes.total());
    e2e.stale_virtual_ms = {m.elapsed.to_ms()};
    add_end_to_end(result, e2e);
    return result;
  }

  map_ms.clear();
  reset_trace();
  set_tracing(true);
  const int traced = repeat_for(options.seconds / 2, 3, session);
  set_tracing(false);
  LayerCounts counts;
  counts.ops = traced;
  count_session(counts, *first);
  counts.untraced_op_ms = untraced_ms;
  counts.traced_op_ms = median(map_ms);
  add_layer_metrics(result, counts);
  finish_trace(options);
  return result;
}

}  // namespace perfbench
