// Re-analysis across two route tables, with a name-keyed delta.
//
// AnalysisState::reanalyze() is analyze() plus the difference from the
// previous call: routes added, changed and removed (by host-name pair) and
// findings introduced and resolved (by code and location). Names survive
// snapshot compaction, so two maps that number their ids differently diff
// correctly. DeltaChecker re-proves a result's certificates with the
// from-scratch checkers. `sanmap lint --diff` runs both.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

/// What changed between two reanalyze() calls. Every list is sorted.
struct CertificateDelta {
  /// (source host name, destination host name).
  using HostPair = std::pair<std::string, std::string>;
  /// (code, location) of one diagnostic.
  using Finding = std::pair<std::string, std::string>;

  std::vector<HostPair> added_routes;
  /// Same host pair, another path (node names and turn word).
  std::vector<HostPair> changed_routes;
  std::vector<HostPair> removed_routes;
  std::vector<Finding> introduced;
  std::vector<Finding> resolved;

  [[nodiscard]] bool empty() const {
    return added_routes.empty() && changed_routes.empty() &&
           removed_routes.empty() && introduced.empty() && resolved.empty();
  }
};

/// Not thread-safe.
class AnalysisState {
 public:
  struct Result {
    AnalysisResult analysis;
    CertificateDelta delta;
  };

  explicit AnalysisState(AnalyzerOptions options = {});

  /// analyze(map, routes) and its delta from the previous call (against an
  /// empty table and report on the first call).
  Result reanalyze(const topo::Topology& map,
                   const routing::RoutingResult& routes);

 private:
  AnalyzerOptions options_;
  /// The previous call's table as host-name pair -> rendered path.
  std::map<CertificateDelta::HostPair, std::string> routes_;
  std::set<CertificateDelta::Finding> findings_;
};

class DeltaChecker {
 public:
  /// Re-proves `result`'s legality and deadlock certificates against the
  /// raw (map, routes) with check_legality / check_deadlock. Appends one
  /// line per discrepancy to `why` when non-null. The delta needs no proof:
  /// it is a name-keyed diff, not a certificate step.
  bool check(const topo::Topology& map, const routing::RoutingResult& routes,
             const AnalysisResult& result, const CertificateDelta& delta,
             std::vector<std::string>* why = nullptr);
};

}  // namespace sanmap::analysis
