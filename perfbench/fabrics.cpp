#include "fabrics.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "topology/generators.hpp"

namespace perfbench {

using namespace sanmap;

topo::Topology k_ary_n_tree(int k, int n, std::uint64_t port_seed) {
  if (k < 1 || n < 1 || 2 * k > 8) {
    throw std::invalid_argument("k_ary_n_tree: need k >= 1, n >= 1, 2k <= 8");
  }
  int per_level = 1;
  for (int i = 0; i + 1 < n; ++i) {
    per_level *= k;
  }
  common::Rng rng(port_seed);
  topo::Topology t;
  // ports[level][w] maps logical port (0..k-1 down, k..2k-1 up) to the
  // physical port number on that switch.
  std::vector<std::vector<std::vector<topo::Port>>> ports(
      static_cast<std::size_t>(n));
  std::vector<std::vector<topo::NodeId>> level_switches(
      static_cast<std::size_t>(n));
  for (int level = 0; level < n; ++level) {
    for (int w = 0; w < per_level; ++w) {
      level_switches[static_cast<std::size_t>(level)].push_back(t.add_switch(
          "s" + std::to_string(level) + "." + std::to_string(w)));
      std::vector<topo::Port> perm(static_cast<std::size_t>(2 * k));
      std::iota(perm.begin(), perm.end(), topo::Port{0});
      if (port_seed != 0) {
        rng.shuffle(perm);
      }
      ports[static_cast<std::size_t>(level)].push_back(std::move(perm));
    }
  }
  const auto port = [&](int level, int w, int logical) {
    return ports[static_cast<std::size_t>(level)][static_cast<std::size_t>(w)]
                [static_cast<std::size_t>(logical)];
  };
  const auto node = [&](int level, int w) {
    return level_switches[static_cast<std::size_t>(level)]
                         [static_cast<std::size_t>(w)];
  };
  // Hosts on the leaves: leaf w carries hosts w*k .. w*k+k-1 on its down
  // ports.
  for (int w = 0; w < per_level; ++w) {
    for (int j = 0; j < k; ++j) {
      const topo::NodeId h = t.add_host("h" + std::to_string(w * k + j));
      t.connect(h, 0, node(0, w), port(0, w, j));
    }
  }
  // Level l to l+1: digit l of the word selects the up port below and the
  // down port above.
  int place = 1;  // k^l, the weight of digit l
  for (int level = 0; level + 1 < n; ++level) {
    for (int w = 0; w < per_level; ++w) {
      const int digit = (w / place) % k;
      for (int d = 0; d < k; ++d) {
        const int upper = w + (d - digit) * place;
        t.connect(node(level, w), port(level, w, k + d), node(level + 1, upper),
                  port(level + 1, upper, digit));
      }
    }
    place *= k;
  }
  return t;
}

topo::Topology banded_fat_tree(int total_switches) {
  topo::MegaFatTreeOptions options;
  options.leaf_switches = std::max(2, total_switches * 8 / 15);
  return topo::mega_fat_tree(options);
}

}  // namespace perfbench
