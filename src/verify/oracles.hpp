// The differential oracle stack: every check the fuzzer runs on a case.
//
// Each oracle is an independent statement about one mapping session over
// the case's network, with the ground truth computed from the case itself
// (the fuzzer knows N; the mapper must rediscover it):
//
//  * berkeley-iso   — BerkeleyMapper's map is isomorphic to core(C) where
//                     C is the mapper host's connected component (Theorem 1,
//                     restricted to the reachable part of a possibly
//                     disconnected fuzz case). Any exception out of the
//                     mapper is a violation of its own (berkeley-crash).
//  * myricom-diff   — on a quiescent cut-through case, MyricomMapper's map
//                     is isomorphic to ALL of C (§4.1 maps host-free
//                     regions too), and the two mappers agree differentially:
//                     core(Myricom's map) ≅ Berkeley's map.
//  * deadlock       — UP*/DOWN* routes over the Berkeley map are compliant
//                     and deadlock-free per routing::analyze_routes (DFS
//                     3-coloring), AND an independent Kahn's-algorithm
//                     detector over the same routing::route_channel_paths
//                     input reaches the same acyclicity verdict.
//  * analysis-clean — the static analyzer (src/analysis) over the Berkeley
//                     map and its routes reports no ERROR diagnostic, its
//                     deadlock-certificate verdict agrees with BOTH dynamic
//                     detectors (DFS 3-coloring and Kahn elimination), and
//                     both certificates survive their independent
//                     re-checkers. Three ways to fail, three keys:
//                     analysis-clean, analysis-deadlock-diff,
//                     analysis-certificate.
//  * conservation   — the ConservationChecker hook, attached to the network
//                     for the whole mapping session, observed no accounting
//                     violation.
//  * pipeline-equiv — pipelined probing is a pure re-timing: BerkeleyMapper
//                     with an outstanding-probe window (pipeline_window = 8)
//                     on the same quiescent case produces a map isomorphic
//                     to the serial run's, identical probe counters, and an
//                     elapsed() no larger than serial; and a window of 1
//                     reproduces the serial elapsed() exactly, to the
//                     nanosecond.
//  * robust-iso     — for cases with a (flap-free) fault timeline: a
//                     converged RobustMapper session yields the map of the
//                     surviving component's core at convergence time.
//                     Non-convergence is a skip, not a violation; so is a
//                     fault landing inside [stable_since, elapsed] — the
//                     session's blind window, where no mapper could have
//                     observed the change.
//  * regional-iso    — regional mapping loses nothing: planner +
//                     ParallelMapper (auto regions anchored at the mapper
//                     host, one depth-bounded session per region, partial
//                     maps merged) produces a merged map Theorem-1
//                     isomorphic to the monolithic truth core(C). A map
//                     isomorphic to core(C) certifies exactly when the
//                     Berkeley map does, so the analysis oracles cover its
//                     certificates. On a flap-free faulted case the oracle
//                     runs on the settled surviving fabric, so fault
//                     schedules are covered too; flap timelines are a skip
//                     (no quiescent instant to map at).
//  * incremental-equiv — for the same flap-free faulted cases, run after
//                     the timeline settles (clock based past the last
//                     event): an IncrementalMapper sweep restricted to the
//                     dirty region (the switches the fault events touch,
//                     expanded by dirty_radius) and spliced into the
//                     pre-fault map must be Theorem-1 isomorphic to the
//                     from-scratch map of the surviving fabric at the same
//                     instant — and, when the dirty region is a strict
//                     subset of the fabric's switches, strictly cheaper in
//                     probes than that from-scratch remap.
//
// Oracles that do not apply to a case (Myricom under circuit switching,
// deadlock on a switchless map, iso under flapping links) are recorded as
// skipped so a fuzzing report can prove coverage, not just absence of
// failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/deadlock.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap::verify {

struct Violation {
  /// Stable oracle key: "berkeley-iso", "berkeley-crash", "myricom-diff",
  /// "myricom-crash", "deadlock-updown", "deadlock-cycle",
  /// "deadlock-differential", "routing-crash", "analysis-clean",
  /// "analysis-deadlock-diff", "analysis-certificate", "analysis-crash",
  /// "conservation", "pipeline-equiv", "pipeline-crash", "robust-iso",
  /// "robust-crash", "incremental-equiv", "incremental-crash",
  /// "regional-iso", "regional-crash".
  std::string oracle;
  std::string detail;
};

struct OracleReport {
  std::vector<Violation> violations;
  /// "oracle: reason" for every check that did not apply to this case.
  std::vector<std::string> skipped;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// True when some violation's oracle key equals `oracle`.
  [[nodiscard]] bool violates(const std::string& oracle) const;
  /// One line per violation/skip, for logs and artifacts.
  [[nodiscard]] std::string summary() const;
};

struct OracleOptions {
  bool berkeley = true;
  bool myricom = true;
  bool deadlock = true;
  bool analysis = true;
  bool conservation = true;
  bool pipeline = true;
  bool robust = true;
  bool incremental = true;
  bool regional = true;

  /// regional-iso: regions to plan over the mapper's component (clamped to
  /// its host count).
  int regions = 3;

  /// incremental-equiv: BFS expansion around the event-touched switches
  /// when deriving the dirty region (the refresh loop expands by one hop).
  int dirty_radius = 1;

  /// Plumbed into MapperConfig::sabotage_skip_merges: breaks the mapper on
  /// purpose so the fuzzer's catch-and-minimize path can be verified.
  bool sabotage_skip_merges = false;

  /// Seed for the UP*/DOWN* parallel-cable tie-break.
  std::uint64_t route_seed = 1;

  /// MapperConfig::max_explorations for oracle-run mapping sessions. Far
  /// above anything a healthy session needs on fuzz-sized cases, but it
  /// bounds a sabotaged (merge-free) mapper to seconds instead of hours.
  std::size_t max_explorations = 2048;
};

/// Runs every applicable oracle on the case.
OracleReport run_oracles(const ScenarioCase& c,
                         const OracleOptions& options = {});

/// The independent channel-dependency-graph acyclicity check: Kahn's
/// algorithm (iterated zero-in-degree elimination) over the dependencies in
/// `paths` — deliberately a different algorithm from the DFS 3-coloring in
/// routing::analyze_channel_paths, so the two can cross-check each other.
/// Returns true when the dependency graph is acyclic.
bool channel_paths_acyclic(const routing::ChannelPaths& paths);

}  // namespace sanmap::verify
