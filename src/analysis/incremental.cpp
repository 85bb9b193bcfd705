#include "analysis/incremental.hpp"

#include <algorithm>
#include <iterator>

#include "analysis/certificates.hpp"
#include "routing/deadlock.hpp"

namespace sanmap::analysis {
namespace {

/// A route by names: the node names along the path and its turn word. The
/// turns fix the port taken at every switch, so parallel cables differ.
std::string render_route(const topo::Topology& map,
                         const routing::HostRoute& route) {
  std::string out;
  for (const topo::NodeId n : route.nodes) {
    out.append(map.name(n)).push_back(' ');
  }
  return out.append(simnet::to_string(route.turns));
}

template <typename Key, typename Set>
std::vector<Key> minus(const Set& a, const Set& b) {
  std::vector<Key> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace

AnalysisState::AnalysisState(AnalyzerOptions options)
    : options_(std::move(options)) {}

AnalysisState::Result AnalysisState::reanalyze(
    const topo::Topology& map, const routing::RoutingResult& routes) {
  Result r;
  r.analysis = analyze(map, routes, options_);

  std::map<CertificateDelta::HostPair, std::string> now;
  if (r.analysis.analyzed_routes) {
    // Only a structurally sound table names live nodes on every hop.
    for (const auto& [key, route] : routes.routes) {
      now.emplace(CertificateDelta::HostPair{map.name(key.first),
                                             map.name(key.second)},
                  render_route(map, route));
    }
  }
  for (const auto& [pair, path] : now) {
    const auto it = routes_.find(pair);
    if (it == routes_.end()) {
      r.delta.added_routes.push_back(pair);
    } else if (it->second != path) {
      r.delta.changed_routes.push_back(pair);
    }
  }
  for (const auto& [pair, path] : routes_) {
    if (!now.contains(pair)) {
      r.delta.removed_routes.push_back(pair);
    }
  }

  std::set<CertificateDelta::Finding> findings;
  for (const Diagnostic& d : r.analysis.report.diagnostics()) {
    findings.emplace(d.code, d.location);
  }
  r.delta.introduced = minus<CertificateDelta::Finding>(findings, findings_);
  r.delta.resolved = minus<CertificateDelta::Finding>(findings_, findings);

  routes_ = std::move(now);
  findings_ = std::move(findings);
  return r;
}

bool DeltaChecker::check(const topo::Topology& map,
                         const routing::RoutingResult& routes,
                         const AnalysisResult& result,
                         const CertificateDelta& /*delta*/,
                         std::vector<std::string>* why) {
  if (!result.analyzed_routes) {
    return true;  // no certificates were issued
  }
  const bool legal = check_legality(map, routes, result.legality, why);
  return check_deadlock(routing::route_channel_paths(map, routes),
                        result.deadlock, why) &&
         legal;
}

}  // namespace sanmap::analysis
