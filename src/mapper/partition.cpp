#include "mapper/partition.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

#include "topology/algorithms.hpp"

namespace sanmap::mapper {

namespace {

using topo::NodeId;
using topo::Topology;

/// Multi-source BFS wire-distance to the nearest host; -1 where no host is
/// reachable. Hosts themselves are at distance 0.
std::vector<int> distance_to_nearest_host(const Topology& t) {
  std::vector<int> dist(t.node_capacity(), -1);
  std::deque<NodeId> frontier;
  for (const NodeId h : t.hosts()) {
    dist[h] = 0;
    frontier.push_back(h);
  }
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop_front();
    for (const topo::PortRef& ref : t.neighbors(n)) {
      if (dist[ref.node] == -1) {
        dist[ref.node] = dist[n] + 1;
        frontier.push_back(ref.node);
      }
    }
  }
  return dist;
}

NodeId resolve_host(const Topology& t, const std::string& name,
                    const char* what) {
  const auto host = t.find_host(name);
  if (!host) {
    throw std::runtime_error(std::string("federation: ") + what +
                             " names no host: " + name);
  }
  return *host;
}

/// "r<index>", built by appending: GCC 12 at -O3 misreads the inlined
/// `"r" + std::to_string(index)` as an overlapping memcpy (-Wrestrict).
std::string default_region_name(std::size_t index) {
  std::string name(1, 'r');
  name += std::to_string(index);
  return name;
}

/// Greedy k-center seed spread: start from the anchor, then repeatedly take
/// the component host farthest from every chosen seed (ties to the lowest
/// id, so the plan is a pure function of the fabric).
std::vector<NodeId> spread_seeds(const Topology& t, NodeId anchor, int k,
                                 const std::vector<int>& component,
                                 int anchor_component) {
  std::vector<NodeId> candidates;
  for (const NodeId h : t.hosts()) {
    if (component[h] == anchor_component && h != anchor) {
      candidates.push_back(h);
    }
  }
  std::vector<NodeId> seeds{anchor};
  std::vector<int> min_dist(t.node_capacity(),
                            std::numeric_limits<int>::max());
  auto absorb = [&](NodeId seed) {
    const std::vector<int> d = topo::bfs_distances(t, seed);
    for (std::size_t n = 0; n < d.size(); ++n) {
      if (d[n] >= 0) {
        min_dist[n] = std::min(min_dist[n], d[n]);
      }
    }
  };
  absorb(anchor);
  while (static_cast<int>(seeds.size()) < k && !candidates.empty()) {
    NodeId best = candidates.front();
    for (const NodeId h : candidates) {
      if (min_dist[h] > min_dist[best]) {
        best = h;
      }
    }
    seeds.push_back(best);
    candidates.erase(std::find(candidates.begin(), candidates.end(), best));
    absorb(best);
  }
  return seeds;
}

}  // namespace

FederationSpec parse_federation_spec(const std::string& text) {
  if (text.empty()) {
    throw std::runtime_error("federation: empty spec");
  }
  FederationSpec spec;
  if (text.rfind("auto", 0) == 0) {
    // "auto:<k>" or "auto:<k>@<anchor-host>".
    const auto colon = text.find(':');
    if (colon == std::string::npos || colon + 1 >= text.size()) {
      throw std::runtime_error("federation: auto spec needs a region count "
                               "(auto:<k>[@<anchor-host>]): " +
                               text);
    }
    std::string count = text.substr(colon + 1);
    if (const auto at = count.find('@'); at != std::string::npos) {
      spec.anchor_host = count.substr(at + 1);
      count = count.substr(0, at);
    }
    try {
      spec.auto_regions = std::stoi(count);
    } catch (const std::exception&) {
      throw std::runtime_error("federation: malformed region count: " + text);
    }
    if (spec.auto_regions < 1) {
      throw std::runtime_error("federation: need at least one region: " +
                               text);
    }
    return spec;
  }
  // Explicit mode: "[name=]host,[name=]host,...".
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (item.empty()) {
      throw std::runtime_error("federation: empty region entry in: " + text);
    }
    RegionSpec region;
    if (const auto eq = item.find('='); eq != std::string::npos) {
      region.name = item.substr(0, eq);
      region.mapper_host = item.substr(eq + 1);
    } else {
      region.mapper_host = item;
    }
    if (region.mapper_host.empty()) {
      throw std::runtime_error("federation: region entry has no host: " +
                               item);
    }
    spec.regions.push_back(std::move(region));
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return spec;
}

RegionPlan partition_fabric(const topo::Topology& fabric,
                            const FederationSpec& spec,
                            const PartitionOptions& options) {
  if (options.overlap_margin < 0) {
    throw std::runtime_error("federation: overlap margin must be >= 0");
  }
  if (fabric.num_hosts() == 0) {
    throw std::runtime_error("federation: fabric has no hosts to seed from");
  }
  std::vector<int> component;
  topo::components(fabric, component);

  // Resolve the seeds.
  std::vector<NodeId> seeds;
  std::vector<std::string> names;
  if (spec.auto_mode()) {
    const NodeId anchor = spec.anchor_host.empty()
                              ? fabric.hosts().front()
                              : resolve_host(fabric, spec.anchor_host,
                                             "anchor");
    seeds = spread_seeds(fabric, anchor, spec.auto_regions, component,
                         component[anchor]);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      names.push_back(default_region_name(i));
    }
  } else {
    for (const RegionSpec& region : spec.regions) {
      const NodeId seed = resolve_host(fabric, region.mapper_host, "region");
      if (std::find(seeds.begin(), seeds.end(), seed) != seeds.end()) {
        throw std::runtime_error("federation: duplicate seed host " +
                                 region.mapper_host);
      }
      if (!seeds.empty() && component[seed] != component[seeds.front()]) {
        throw std::runtime_error(
            "federation: seed hosts span disconnected components (" +
            fabric.name(seeds.front()) + " vs " + region.mapper_host + ")");
      }
      seeds.push_back(seed);
      names.push_back(region.name.empty()
                          ? default_region_name(seeds.size() - 1)
                          : region.name);
    }
  }
  if (seeds.empty()) {
    throw std::runtime_error("federation: spec yields no regions");
  }
  const int home = component[seeds.front()];

  // Nearest-seed assignment: per-seed BFS, argmin with ties to the lower
  // region index.
  std::vector<std::vector<int>> dist;
  dist.reserve(seeds.size());
  for (const NodeId seed : seeds) {
    dist.push_back(topo::bfs_distances(fabric, seed));
  }
  std::vector<int> owner(fabric.node_capacity(), -1);
  for (const NodeId n : fabric.nodes()) {
    if (component[n] != home) {
      continue;
    }
    int best = -1;
    for (std::size_t r = 0; r < seeds.size(); ++r) {
      if (dist[r][n] < 0) {
        continue;
      }
      if (best < 0 ||
          dist[r][n] < dist[static_cast<std::size_t>(best)][n]) {
        best = static_cast<int>(r);
      }
    }
    owner[n] = best;
  }

  RegionPlan plan;
  plan.regions.resize(seeds.size());
  const std::vector<int> host_dist = distance_to_nearest_host(fabric);
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    plan.regions[r].name = names[r];
    plan.regions[r].mapper = seeds[r];
  }
  for (const NodeId n : fabric.nodes()) {
    if (owner[n] < 0) {
      if (component[n] == home && fabric.is_switch(n)) {
        ++plan.unassigned_switches;
      }
      continue;
    }
    Region& region = plan.regions[static_cast<std::size_t>(owner[n])];
    if (fabric.is_switch(n)) {
      region.switches.push_back(n);
    } else {
      region.hosts.push_back(n);
    }
  }

  // Per-region depth: cover every assigned switch *and* its nearest host
  // anchor (an un-anchored fringe switch would be cored out of the partial
  // map), plus the overlap margin that buys the partial-map merge shared
  // evidence with the neighbouring regions.
  for (std::size_t r = 0; r < seeds.size(); ++r) {
    Region& region = plan.regions[r];
    int depth = 1;
    for (const NodeId s : region.switches) {
      const int anchor = host_dist[s] >= 0 ? host_dist[s] : 0;
      depth = std::max(depth, dist[r][s] + anchor);
    }
    for (const NodeId h : region.hosts) {
      depth = std::max(depth, dist[r][h]);
    }
    region.depth = depth + options.overlap_margin;
  }

  // Boundary census: assigned switches adjacent to another region.
  for (const NodeId n : fabric.switches()) {
    if (owner[n] < 0) {
      continue;
    }
    for (const topo::PortRef& ref : fabric.neighbors(n)) {
      if (fabric.is_switch(ref.node) && owner[ref.node] >= 0 &&
          owner[ref.node] != owner[n]) {
        ++plan.boundary_switches;
        break;
      }
    }
  }
  return plan;
}

}  // namespace sanmap::mapper
