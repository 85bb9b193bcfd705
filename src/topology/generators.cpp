#include "topology/generators.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace sanmap::topo {

namespace {

/// "<prefix><n>", built by appending to a std::string. GCC 12 at -O3
/// misreads the inlined `const char* + std::string&&` overload as an
/// overlapping memcpy (-Wrestrict), so node names are never built that way.
std::string numbered(std::string prefix, int n) {
  prefix += std::to_string(n);
  return prefix;
}

/// Per-subcluster shape parameters. Derived so that the generated component
/// counts match the paper's Figure 3 exactly (see header comment).
struct SubclusterShape {
  std::vector<int> hosts_per_leaf;    // also determines leaf count
  std::vector<int> uplinks_per_leaf;  // links from each leaf to level 2
  int level2_switches = 0;
  int root_switches = 0;
  // Number of links from each level-2 switch to the roots (distributed
  // round-robin over roots; may include parallel cables).
  std::vector<int> root_links_per_level2;
  // Index of the leaf whose last uplink is missing ("faulty and removed"),
  // or -1.
  int faulty_leaf = -1;
};

SubclusterShape shape_for(Subcluster which) {
  SubclusterShape s;
  switch (which) {
    case Subcluster::kA:
      // 34 interfaces (33 hosts + utility), 13 switches, 64 links:
      // 34 host links + 21 leaf uplinks + 9 level2-root links.
      s.hosts_per_leaf = {5, 5, 5, 5, 5, 4, 4};
      s.uplinks_per_leaf = {3, 3, 3, 3, 3, 3, 3};
      s.level2_switches = 4;
      s.root_switches = 2;
      s.root_links_per_level2 = {2, 3, 2, 2};
      break;
    case Subcluster::kB:
      // 30 interfaces (29 hosts + utility), 14 switches, 65 links:
      // 30 host links + 25 leaf uplinks + 10 level2-root links.
      s.hosts_per_leaf = {5, 5, 5, 4, 4, 3, 3};
      s.uplinks_per_leaf = {3, 3, 3, 4, 4, 4, 4};
      s.level2_switches = 5;
      s.root_switches = 2;
      s.root_links_per_level2 = {2, 2, 2, 2, 2};
      break;
    case Subcluster::kC:
      // 36 interfaces (35 hosts + utility), 13 switches, 64 links:
      // 36 host links + 20 leaf uplinks (one faulty) + 8 level2-root links.
      s.hosts_per_leaf = {5, 5, 5, 5, 5, 5, 5};
      s.uplinks_per_leaf = {3, 3, 3, 3, 3, 3, 3};
      s.level2_switches = 4;
      s.root_switches = 2;
      s.root_links_per_level2 = {2, 2, 2, 2};
      s.faulty_leaf = 3;  // "the middle switch in the first level"
      break;
  }
  return s;
}

/// Appends one subcluster into `topo`; returns its root switch ids.
std::vector<NodeId> build_subcluster(Topology& topo, Subcluster which,
                                     const std::string& prefix) {
  const SubclusterShape shape = shape_for(which);
  const auto num_leaves = shape.hosts_per_leaf.size();

  std::vector<NodeId> leaves;
  leaves.reserve(num_leaves);
  int host_index = 0;
  for (std::size_t i = 0; i < num_leaves; ++i) {
    const NodeId leaf = topo.add_switch(prefix + ".leaf" + std::to_string(i));
    leaves.push_back(leaf);
    for (int h = 0; h < shape.hosts_per_leaf[i]; ++h) {
      const NodeId host =
          topo.add_host(prefix + ".h" + std::to_string(host_index++));
      topo.connect_any(host, leaf);
    }
  }

  std::vector<NodeId> level2;
  for (int i = 0; i < shape.level2_switches; ++i) {
    level2.push_back(topo.add_switch(prefix + ".mid" + std::to_string(i)));
  }
  std::vector<NodeId> roots;
  for (int i = 0; i < shape.root_switches; ++i) {
    roots.push_back(topo.add_switch(prefix + ".root" + std::to_string(i)));
  }

  // Leaf uplinks: spread each leaf's uplinks over the least-loaded level-2
  // switches (deterministic tie-break by index), so no level-2 switch is
  // over its port budget and the tree is irregular but balanced.
  std::vector<int> level2_load(level2.size(), 0);
  for (std::size_t i = 0; i < num_leaves; ++i) {
    int uplinks = shape.uplinks_per_leaf[i];
    if (static_cast<int>(i) == shape.faulty_leaf) {
      --uplinks;  // faulty cable, removed and never replaced
    }
    std::vector<std::size_t> order(level2.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return level2_load[a] < level2_load[b];
                     });
    SANMAP_CHECK(static_cast<std::size_t>(uplinks) <= order.size());
    for (int u = 0; u < uplinks; ++u) {
      const std::size_t target = order[static_cast<std::size_t>(u)];
      topo.connect_any(leaves[i], level2[target]);
      ++level2_load[target];
    }
  }

  // Level-2 to root links, round-robin over roots; counts > root count give
  // parallel cables, which real installations had.
  for (std::size_t i = 0; i < level2.size(); ++i) {
    for (int r = 0; r < shape.root_links_per_level2[i]; ++r) {
      topo.connect_any(level2[i], roots[static_cast<std::size_t>(r) %
                                        roots.size()]);
    }
  }

  // The distinguished utility host hangs directly off the first root.
  const NodeId util = topo.add_host(prefix + ".util");
  topo.connect_any(util, roots.front());

  return roots;
}

}  // namespace

Topology now_subcluster(Subcluster which, const std::string& host_prefix) {
  Topology topo;
  build_subcluster(topo, which, host_prefix);
  return topo;
}

Inventory now_inventory(Subcluster which) {
  switch (which) {
    case Subcluster::kA:
      return Inventory{34, 13, 64};
    case Subcluster::kB:
      return Inventory{30, 14, 65};
    case Subcluster::kC:
      return Inventory{36, 13, 64};
  }
  SANMAP_CHECK(false);
  return {};
}

Topology now_cluster(const NowOptions& options) {
  Topology topo;
  std::vector<std::vector<NodeId>> cluster_roots;
  // Build in the paper's growth order: C first, then A, then B.
  if (options.include_c) {
    cluster_roots.push_back(build_subcluster(topo, Subcluster::kC, "C"));
  }
  if (options.include_a) {
    cluster_roots.push_back(build_subcluster(topo, Subcluster::kA, "A"));
  }
  if (options.include_b) {
    cluster_roots.push_back(build_subcluster(topo, Subcluster::kB, "B"));
  }
  SANMAP_CHECK_MSG(!cluster_roots.empty(), "no subcluster selected");

  // Trunk cables between consecutive subclusters' roots.
  for (std::size_t i = 0; i + 1 < cluster_roots.size(); ++i) {
    const auto& left = cluster_roots[i];
    const auto& right = cluster_roots[i + 1];
    for (int t = 0; t < options.trunks_per_pair; ++t) {
      topo.connect_any(left[static_cast<std::size_t>(t) % left.size()],
                       right[static_cast<std::size_t>(t) % right.size()]);
    }
  }

  // Optional shared roots spanning every subcluster.
  for (int e = 0; e < options.extra_roots; ++e) {
    const NodeId shared = topo.add_switch(numbered("xroot", e));
    for (const auto& roots : cluster_roots) {
      for (const NodeId r : roots) {
        if (topo.free_port(shared) && topo.free_port(r)) {
          topo.connect_any(shared, r);
        }
      }
    }
  }
  return topo;
}

Topology now_system(NowSystem system) {
  NowOptions options;
  options.include_c = true;
  options.include_a = system != NowSystem::kC;
  options.include_b = system == NowSystem::kCAB;
  return now_cluster(options);
}

const char* to_string(NowSystem system) {
  switch (system) {
    case NowSystem::kC:
      return "C";
    case NowSystem::kCA:
      return "C+A";
    case NowSystem::kCAB:
      return "C+A+B";
  }
  return "?";
}

Topology hypercube(int dim, int hosts_per_switch) {
  SANMAP_CHECK(dim >= 1 && dim <= 7);
  SANMAP_CHECK(hosts_per_switch >= 0 && hosts_per_switch <= 8 - dim);
  Topology topo;
  const int n = 1 << dim;
  std::vector<NodeId> switches;
  switches.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    switches.push_back(topo.add_switch(numbered("cube", i)));
  }
  // Dimension b uses port b on both ends — the canonical hypercube wiring.
  for (int i = 0; i < n; ++i) {
    for (int b = 0; b < dim; ++b) {
      const int j = i ^ (1 << b);
      if (i < j) {
        topo.connect(switches[static_cast<std::size_t>(i)], b,
                     switches[static_cast<std::size_t>(j)], b);
      }
    }
  }
  int host_index = 0;
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h < hosts_per_switch; ++h) {
      const NodeId host = topo.add_host(numbered("h", host_index++));
      topo.connect(host, 0, switches[static_cast<std::size_t>(i)], dim + h);
    }
  }
  return topo;
}

namespace {

Topology grid(int width, int height, int hosts_per_switch, bool wrap) {
  SANMAP_CHECK(width >= 1 && height >= 1);
  if (wrap) {
    SANMAP_CHECK_MSG(width >= 3 && height >= 3,
                     "torus needs width and height >= 3");
  }
  SANMAP_CHECK(hosts_per_switch >= 0 && hosts_per_switch <= 4);
  Topology topo;
  std::vector<NodeId> sw(static_cast<std::size_t>(width) *
                         static_cast<std::size_t>(height));
  const auto at = [&](int x, int y) {
    return sw[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
              static_cast<std::size_t>(x)];
  };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      sw[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
         static_cast<std::size_t>(x)] =
          topo.add_switch(numbered(numbered("g", x) + "_", y));
    }
  }
  // Port convention: 0 = east, 1 = west, 2 = south, 3 = north.
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) {
        topo.connect(at(x, y), 0, at(x + 1, y), 1);
      } else if (wrap) {
        topo.connect(at(x, y), 0, at(0, y), 1);
      }
      if (y + 1 < height) {
        topo.connect(at(x, y), 2, at(x, y + 1), 3);
      } else if (wrap) {
        topo.connect(at(x, y), 2, at(x, 0), 3);
      }
    }
  }
  int host_index = 0;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      for (int h = 0; h < hosts_per_switch; ++h) {
        const NodeId host = topo.add_host(numbered("h", host_index++));
        topo.connect(host, 0, at(x, y), 4 + h);
      }
    }
  }
  return topo;
}

}  // namespace

Topology mesh(int width, int height, int hosts_per_switch) {
  return grid(width, height, hosts_per_switch, /*wrap=*/false);
}

Topology torus(int width, int height, int hosts_per_switch) {
  return grid(width, height, hosts_per_switch, /*wrap=*/true);
}

Topology ring(int num_switches, int hosts_per_switch) {
  SANMAP_CHECK(num_switches >= 3);
  SANMAP_CHECK(hosts_per_switch >= 0 && hosts_per_switch <= 6);
  Topology topo;
  std::vector<NodeId> sw;
  sw.reserve(static_cast<std::size_t>(num_switches));
  for (int i = 0; i < num_switches; ++i) {
    sw.push_back(topo.add_switch(numbered("r", i)));
  }
  for (int i = 0; i < num_switches; ++i) {
    // Port 0 = clockwise, port 1 = counter-clockwise.
    topo.connect(sw[static_cast<std::size_t>(i)], 0,
                 sw[static_cast<std::size_t>((i + 1) % num_switches)], 1);
  }
  int host_index = 0;
  for (int i = 0; i < num_switches; ++i) {
    for (int h = 0; h < hosts_per_switch; ++h) {
      const NodeId host = topo.add_host(numbered("h", host_index++));
      topo.connect(host, 0, sw[static_cast<std::size_t>(i)], 2 + h);
    }
  }
  return topo;
}

Topology star(int leaves, int hosts_per_leaf) {
  SANMAP_CHECK(leaves >= 1 && leaves <= 8);
  SANMAP_CHECK(hosts_per_leaf >= 1 && hosts_per_leaf <= 7);
  Topology topo;
  const NodeId center = topo.add_switch("center");
  int host_index = 0;
  for (int i = 0; i < leaves; ++i) {
    const NodeId leaf = topo.add_switch(numbered("leaf", i));
    topo.connect(leaf, 0, center, i);
    for (int h = 0; h < hosts_per_leaf; ++h) {
      const NodeId host = topo.add_host(numbered("h", host_index++));
      topo.connect(host, 0, leaf, 1 + h);
    }
  }
  return topo;
}

Topology fat_tree(const FatTreeOptions& options) {
  SANMAP_CHECK(options.levels >= 2);
  SANMAP_CHECK(options.leaf_switches >= 1);
  SANMAP_CHECK(options.switches_per_upper_level >= 1);
  SANMAP_CHECK(options.hosts_per_leaf >= 1);
  SANMAP_CHECK(options.uplinks >= 1);
  Topology topo;
  std::vector<std::vector<NodeId>> level(
      static_cast<std::size_t>(options.levels));
  for (int l = 0; l < options.levels; ++l) {
    const int count = (l == 0) ? options.leaf_switches
                               : options.switches_per_upper_level;
    for (int i = 0; i < count; ++i) {
      level[static_cast<std::size_t>(l)].push_back(topo.add_switch(
          numbered(numbered("L", l) + ".", i)));
    }
  }
  int host_index = 0;
  for (const NodeId leaf : level[0]) {
    for (int h = 0; h < options.hosts_per_leaf; ++h) {
      const NodeId host = topo.add_host(numbered("h", host_index++));
      topo.connect_any(host, leaf);
    }
  }
  for (int l = 0; l + 1 < options.levels; ++l) {
    const auto& lower = level[static_cast<std::size_t>(l)];
    const auto& upper = level[static_cast<std::size_t>(l + 1)];
    // Lower switch i uplinks to the consecutive upper window starting at
    // i mod n: successive lower switches overlap by all but one upper, so
    // (for uplinks >= 2, or a single upper switch) the level stays
    // connected at every size — naive round-robin partitions it into
    // residue classes.
    SANMAP_CHECK_MSG(options.uplinks >= 2 || upper.size() == 1,
                     "fat_tree needs uplinks >= 2 (or one switch per upper "
                     "level) to stay connected");
    for (std::size_t li = 0; li < lower.size(); ++li) {
      const NodeId s = lower[li];
      for (int u = 0; u < options.uplinks; ++u) {
        // Start from the windowed target; fall forward to the next upper
        // switch with a free port.
        for (std::size_t tries = 0; tries < upper.size(); ++tries) {
          const NodeId target =
              upper[(li + static_cast<std::size_t>(u) + tries) %
                    upper.size()];
          if (topo.free_port(s) && topo.free_port(target)) {
            topo.connect_any(s, target);
            break;
          }
        }
      }
    }
  }
  return topo;
}

Topology multi_pod(const MultiPodOptions& options) {
  SANMAP_CHECK(options.pods >= 1);
  SANMAP_CHECK(options.leaf_switches_per_pod >= 1);
  SANMAP_CHECK(options.pod_roots >= 1);
  SANMAP_CHECK(options.hosts_per_leaf >= 1);
  SANMAP_CHECK(options.uplinks >= 1);
  SANMAP_CHECK(options.spines >= 1);
  SANMAP_CHECK(options.spine_uplinks >= 0);
  // Port budgets (8-port switches): spines take their share of root links,
  // pod roots take their share of leaf uplinks plus their spine links,
  // leaves take hosts plus uplinks.
  const int total_roots = options.pods * options.pod_roots;
  const int spine_links_per_root =
      options.spine_uplinks > 0 ? options.spine_uplinks : options.spines;
  if (options.spine_uplinks == 0) {
    // Dense legacy wiring: every pod root reaches every spine.
    SANMAP_CHECK_MSG(total_roots <= 8, "multi_pod: spine ports exhausted");
  } else {
    SANMAP_CHECK_MSG(options.spine_uplinks >= 2 || options.spines == 1,
                     "multi_pod: spine_uplinks >= 2 (or one spine) keeps "
                     "the spine layer connected");
    SANMAP_CHECK_MSG(total_roots * options.spine_uplinks <= 8 * options.spines,
                     "multi_pod: spine ports exhausted");
    SANMAP_CHECK_MSG(total_roots * options.spine_uplinks >= 2 * options.spines,
                     "multi_pod: every spine needs >= 2 root links to "
                     "survive coring");
  }
  SANMAP_CHECK_MSG(
      (options.leaf_switches_per_pod * options.uplinks + options.pod_roots -
       1) / options.pod_roots + spine_links_per_root <= 8,
      "multi_pod: pod-root ports exhausted");
  SANMAP_CHECK_MSG(options.hosts_per_leaf + options.uplinks <= 8,
                   "multi_pod: leaf ports exhausted");
  SANMAP_CHECK_MSG(options.uplinks >= 2 || options.pod_roots == 1,
                   "multi_pod: uplinks >= 2 (or one pod root) keeps a pod "
                   "connected at every size");
  Topology topo;
  std::vector<NodeId> spines;
  for (int s = 0; s < options.spines; ++s) {
    spines.push_back(topo.add_switch(numbered("spine", s)));
  }
  int root_counter = 0;  // global root order for the windowed spine spread
  for (int p = 0; p < options.pods; ++p) {
    const std::string prefix = numbered("P", p) + ".";
    std::vector<NodeId> roots;
    for (int r = 0; r < options.pod_roots; ++r) {
      roots.push_back(topo.add_switch(prefix + "R" + std::to_string(r)));
    }
    int host_index = 0;
    for (int l = 0; l < options.leaf_switches_per_pod; ++l) {
      const NodeId leaf = topo.add_switch(prefix + "L" + std::to_string(l));
      for (int h = 0; h < options.hosts_per_leaf; ++h) {
        const NodeId host =
            topo.add_host(prefix + "h" + std::to_string(host_index++));
        topo.connect_any(host, leaf);
      }
      // Same overlapping-window uplink spread as fat_tree: successive
      // leaves shift by one root, so the pod stays connected at every size.
      for (int u = 0; u < options.uplinks; ++u) {
        for (std::size_t tries = 0; tries < roots.size(); ++tries) {
          const NodeId target =
              roots[(static_cast<std::size_t>(l + u) + tries) % roots.size()];
          if (topo.free_port(leaf) && topo.free_port(target)) {
            topo.connect_any(leaf, target);
            break;
          }
        }
      }
    }
    for (const NodeId root : roots) {
      if (options.spine_uplinks == 0) {
        for (const NodeId spine : spines) {
          topo.connect_any(root, spine);
        }
      } else {
        // Windowed round-robin over the global root order: root k takes
        // spines k .. k + spine_uplinks - 1 (mod spines), with free-port
        // fall-forward. Consecutive windows overlap by all but one spine,
        // so every adjacent spine pair shares a root and the layer is
        // connected with every spine multiply attached.
        for (int u = 0; u < options.spine_uplinks; ++u) {
          for (std::size_t tries = 0; tries < spines.size(); ++tries) {
            const NodeId target =
                spines[(static_cast<std::size_t>(root_counter + u) + tries) %
                       spines.size()];
            if (topo.free_port(root) && topo.free_port(target)) {
              topo.connect_any(root, target);
              break;
            }
          }
        }
      }
      ++root_counter;
    }
  }
  return topo;
}

Topology mega_fat_tree(const MegaFatTreeOptions& options) {
  SANMAP_CHECK(options.levels >= 2);
  SANMAP_CHECK(options.leaf_switches >= 2);
  SANMAP_CHECK(options.taper >= 2);
  SANMAP_CHECK(options.hosts_per_leaf >= 1);
  SANMAP_CHECK_MSG(options.uplinks >= 2,
                   "mega_fat_tree: uplinks >= 2 keeps every level connected");
  SANMAP_CHECK_MSG(options.hosts_per_leaf + options.uplinks <= 8,
                   "mega_fat_tree: leaf ports exhausted");
  // A mid-level switch absorbs at most taper * uplinks downlinks (the level
  // below is at most taper times wider) on top of its own uplinks; the top
  // level spends all 8 ports on downlinks.
  SANMAP_CHECK_MSG((options.taper + 1) * options.uplinks <= 8,
                   "mega_fat_tree: mid-level ports exhausted");
  Topology topo;
  std::vector<std::vector<NodeId>> level;
  int width = options.leaf_switches;
  for (int l = 0; l < options.levels; ++l) {
    if (l > 0) {
      width = std::max(2, (width + options.taper - 1) / options.taper);
    }
    std::vector<NodeId> row;
    row.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      row.push_back(topo.add_switch(numbered(numbered("L", l) + ".", i)));
    }
    level.push_back(std::move(row));
  }
  int host_index = 0;
  for (const NodeId leaf : level[0]) {
    for (int h = 0; h < options.hosts_per_leaf; ++h) {
      const NodeId host = topo.add_host(numbered("h", host_index++));
      topo.connect_any(host, leaf);
    }
  }
  for (int l = 0; l + 1 < options.levels; ++l) {
    const auto& lower = level[static_cast<std::size_t>(l)];
    const auto& upper = level[static_cast<std::size_t>(l + 1)];
    // The fat_tree overlapping-window spread: lower switch i uplinks to the
    // consecutive upper window starting at i mod n, falling forward past
    // full switches, so the level stays connected at every width.
    for (std::size_t li = 0; li < lower.size(); ++li) {
      const NodeId s = lower[li];
      for (int u = 0; u < options.uplinks; ++u) {
        for (std::size_t tries = 0; tries < upper.size(); ++tries) {
          const NodeId target =
              upper[(li + static_cast<std::size_t>(u) + tries) %
                    upper.size()];
          if (topo.free_port(s) && topo.free_port(target)) {
            topo.connect_any(s, target);
            break;
          }
        }
      }
    }
  }
  return topo;
}

Topology dragonfly_ish(const DragonflyishOptions& options, common::Rng& rng) {
  SANMAP_CHECK(options.groups >= 3);
  SANMAP_CHECK(options.switches_per_group >= 3);
  SANMAP_CHECK(options.hosts_per_group >= 1);
  SANMAP_CHECK(options.local_chords >= 0);
  SANMAP_CHECK(options.global_extras >= 0);
  // Ring (2 ports) + spread hosts must leave a port for the global ring.
  SANMAP_CHECK_MSG(
      (options.hosts_per_group + options.switches_per_group - 1) /
              options.switches_per_group + 3 <= 8,
      "dragonfly_ish: switch ports exhausted by hosts alone");
  const auto s_count = static_cast<std::size_t>(options.switches_per_group);
  Topology topo;
  std::vector<std::vector<NodeId>> group(
      static_cast<std::size_t>(options.groups));
  for (int g = 0; g < options.groups; ++g) {
    auto& row = group[static_cast<std::size_t>(g)];
    row.reserve(s_count);
    for (int s = 0; s < options.switches_per_group; ++s) {
      row.push_back(topo.add_switch(numbered(numbered("G", g) + ".", s)));
    }
    // Deterministic skeleton 1: the local ring.
    for (std::size_t s = 0; s < s_count; ++s) {
      topo.connect_any(row[s], row[(s + 1) % s_count]);
    }
    // Hosts spread round-robin over the ring.
    for (int h = 0; h < options.hosts_per_group; ++h) {
      const NodeId host = topo.add_host(numbered(numbered("G", g) + ".h", h));
      topo.connect_any(host, row[static_cast<std::size_t>(h) % s_count]);
    }
  }
  // Deterministic skeleton 2: the global ring, entry switch rotating per
  // group so no single switch collects all the long-haul ports.
  for (int g = 0; g < options.groups; ++g) {
    const auto next = static_cast<std::size_t>((g + 1) % options.groups);
    topo.connect_any(
        group[static_cast<std::size_t>(g)][static_cast<std::size_t>(g) %
                                           s_count],
        group[next][(static_cast<std::size_t>(g) + 1) % s_count]);
  }
  // Seeded rewiring on top of the (connectivity-guaranteeing) skeleton:
  // attempts that land on full switches are skipped, keeping every draw
  // deterministic for a given seed without any port-budget bookkeeping.
  for (int g = 0; g < options.groups; ++g) {
    const auto& row = group[static_cast<std::size_t>(g)];
    for (int c = 0; c < options.local_chords; ++c) {
      const std::size_t a = rng.below(s_count);
      const std::size_t b = rng.below(s_count);
      if (a == b || !topo.free_port(row[a]) || !topo.free_port(row[b])) {
        continue;
      }
      topo.connect_any(row[a], row[b]);
    }
    for (int e = 0; e < options.global_extras; ++e) {
      const auto far_group = static_cast<std::size_t>(
          rng.below(static_cast<std::uint64_t>(options.groups)));
      const std::size_t a = rng.below(s_count);
      const std::size_t b = rng.below(s_count);
      if (far_group == static_cast<std::size_t>(g)) {
        continue;
      }
      const NodeId from = row[a];
      const NodeId to = group[far_group][b];
      if (!topo.free_port(from) || !topo.free_port(to)) {
        continue;
      }
      topo.connect_any(from, to);
    }
  }
  return topo;
}

int generous_search_depth(const Topology& topo) {
  // A probe walk never repeats a directed wire, so Q <= 2 * wires and
  // D <= wires: Q + D + 1 <= 3 * wires + 1. Overshooting the exact bound
  // only relaxes the exploration cap — it adds no probes — so megafabric
  // sessions skip the min-cost-flow Q entirely.
  return static_cast<int>(3 * topo.num_wires() + 3);
}

Topology random_irregular(int num_switches, int num_hosts, int extra_links,
                          common::Rng& rng) {
  SANMAP_CHECK(num_switches >= 1);
  SANMAP_CHECK(num_hosts >= 0);
  Topology topo;
  std::vector<NodeId> sw;
  sw.reserve(static_cast<std::size_t>(num_switches));
  for (int i = 0; i < num_switches; ++i) {
    sw.push_back(topo.add_switch());
  }

  const auto random_free_port = [&](NodeId n) -> std::optional<Port> {
    std::vector<Port> free;
    for (Port p = 0; p < topo.port_count(n); ++p) {
      if (!topo.wire_at(n, p)) {
        free.push_back(p);
      }
    }
    if (free.empty()) {
      return std::nullopt;
    }
    return rng.pick(free);
  };

  // Random spanning tree: each switch after the first links to a random
  // earlier switch with a free port.
  for (int i = 1; i < num_switches; ++i) {
    for (int attempts = 0;; ++attempts) {
      SANMAP_CHECK_MSG(attempts < 1000,
                       "random_irregular: no free port for spanning tree");
      const NodeId target =
          sw[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i)))];
      const auto pa = random_free_port(sw[static_cast<std::size_t>(i)]);
      const auto pb = random_free_port(target);
      if (pa && pb) {
        topo.connect(sw[static_cast<std::size_t>(i)], *pa, target, *pb);
        break;
      }
    }
  }

  // Extra random switch-switch links (may create parallel edges and cycles).
  int added = 0;
  for (int attempts = 0; added < extra_links && attempts < extra_links * 100;
       ++attempts) {
    const NodeId a = rng.pick(sw);
    const NodeId b = rng.pick(sw);
    if (a == b) {
      continue;
    }
    const auto pa = random_free_port(a);
    const auto pb = random_free_port(b);
    if (pa && pb) {
      topo.connect(a, *pa, b, *pb);
      ++added;
    }
  }

  // Hosts on random switches with free ports.
  for (int h = 0; h < num_hosts; ++h) {
    const NodeId host = topo.add_host();
    for (int attempts = 0;; ++attempts) {
      SANMAP_CHECK_MSG(attempts < 1000,
                       "random_irregular: no free switch port for host "
                           << h << " (too many hosts for the fabric)");
      const NodeId target = rng.pick(sw);
      const auto p = random_free_port(target);
      if (p) {
        topo.connect(host, 0, target, *p);
        break;
      }
    }
  }
  return topo;
}

Topology with_switch_tail(int body_switches, int body_hosts,
                          int tail_switches, common::Rng& rng) {
  SANMAP_CHECK(tail_switches >= 1);
  Topology topo = random_irregular(body_switches, body_hosts,
                                   body_switches / 2, rng);
  // A chain of host-free switches hanging off one body switch by a single
  // wire — that wire is a switch-bridge and the whole chain is in F.
  const auto switches = topo.switches();
  NodeId anchor = kInvalidNode;
  for (const NodeId s : switches) {
    if (topo.free_port(s)) {
      anchor = s;
      break;
    }
  }
  SANMAP_CHECK_MSG(anchor != kInvalidNode, "no free port to attach tail");
  NodeId prev = anchor;
  for (int i = 0; i < tail_switches; ++i) {
    const NodeId next = topo.add_switch(numbered("tail", i));
    topo.connect_any(prev, next);
    prev = next;
  }
  return topo;
}

}  // namespace sanmap::topo
