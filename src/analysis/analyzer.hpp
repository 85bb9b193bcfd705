// sanlint — the static route/map analyzer.
//
// analyze() takes a map and the route table computed over it and, without
// ever running the simulator, produces structured diagnostics plus two
// machine-checkable certificates: UP*/DOWN* legality per route and
// deadlock freedom via an explicit channel-dependency graph (topological
// order, or a concrete cycle as counterexample). It is the gate behind
// `sanmap lint`, the MapCatalog publish path, and the fuzzer's
// analysis_clean oracle — one analyzer, three enforcement layers.
#pragma once

#include <string>

#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lints.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

/// Every analysis runs the fabric lints, the route lints and both
/// certificates, storing at most 20 findings per code (DiagnosticReport's
/// cap).
struct AnalyzerOptions {
  LintOptions lints;
};

struct AnalysisResult {
  DiagnosticReport report;
  /// True when the route phase ran (structurally sound table present).
  bool analyzed_routes = false;
  LegalityCertificate legality;
  DeadlockCertificate deadlock;

  [[nodiscard]] bool clean() const { return report.clean(); }
};

/// Full static analysis of a map plus its route table. The table's
/// orientation is re-derived from its root — the analyzer never trusts the
/// RoutingResult's internal topology pointer.
AnalysisResult analyze(const topo::Topology& map,
                       const routing::RoutingResult& routes,
                       const AnalyzerOptions& options = {});

/// Map-only analysis: fabric well-formedness lints, no route phase.
AnalysisResult analyze_map(const topo::Topology& map);

/// The whole result as JSON: diagnostics plus certificate summaries.
std::string to_json(const AnalysisResult& result);

}  // namespace sanmap::analysis
