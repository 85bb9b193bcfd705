// Floyd-Warshall all-pairs shortest paths over one directed relation (the
// "up" or "down" digraph of an orientation), with intermediate-node path
// reconstruction. Shared by the UP*/DOWN* emitter and the route optimizer —
// both compute compliant paths as an up prefix + down suffix through the
// best apex, so they need the same two tables.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace sanmap::routing::detail {

constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;

struct AllPairs {
  std::vector<int> dist;  // n*n
  std::vector<int> via;   // n*n; -1 = direct edge (or unreachable/self)
  std::size_t n = 0;

  [[nodiscard]] int d(std::size_t i, std::size_t j) const {
    return dist[i * n + j];
  }

  void compute(std::size_t count,
               const std::vector<std::vector<std::size_t>>& direct) {
    n = count;
    dist.assign(n * n, kUnreachable);
    via.assign(n * n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      dist[i * n + i] = 0;
      for (const std::size_t j : direct[i]) {
        dist[i * n + j] = 1;
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        const int dik = dist[i * n + k];
        if (dik == kUnreachable) {
          continue;
        }
        for (std::size_t j = 0; j < n; ++j) {
          if (dik + dist[k * n + j] < dist[i * n + j]) {
            dist[i * n + j] = dik + dist[k * n + j];
            via[i * n + j] = static_cast<int>(k);
          }
        }
      }
    }
  }

  /// Appends the node sequence strictly after `i` up to and including `j`.
  void expand(std::size_t i, std::size_t j,
              std::vector<std::size_t>& out) const {
    if (i == j) {
      return;
    }
    const int k = via[i * n + j];
    if (k == -1) {
      out.push_back(j);
      return;
    }
    expand(i, static_cast<std::size_t>(k), out);
    expand(static_cast<std::size_t>(k), j, out);
  }
};

}  // namespace sanmap::routing::detail
