// The three workloads and what they share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// 0: measure end-to-end metrics untraced. 1: measure untraced for half
  /// the time, then traced for the other half, and report per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its Chrome trace (empty: nowhere).
  std::string trace_out;
};

Result run_now100_churn(const Options& options);
Result run_ktree_epoch(const Options& options);
Result run_banded_map(const Options& options);

/// How many times each run sets its workload up; setup_s is the median.
inline constexpr int kSetups = 7;

/// The end-to-end metrics, the same set for every workload. An epoch is the
/// work from needing a map to having a usable one: a cold epoch on
/// ktree-epoch, a cold mapping session on banded-map, a tick that remapped
/// on now100-churn.
struct EndToEnd {
  double setup_s = 0;
  double epoch_wall_ms_p50 = 0;
  /// Virtual time of an epoch's mapping (on now100-churn the remap tick,
  /// with its health check, validation and table distribution).
  double map_virtual_ms = 0;
  double map_probes = 0;
  /// Virtual time from losing a usable map (boot, or breakage seen) to
  /// publishing one: on the cold workloads, the mapping's virtual time.
  std::vector<double> stale_virtual_ms;
};

/// Appends the end-to-end metrics, with peak RSS and the share of checked
/// operations that were right.
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// Calls `op` until `seconds` have passed since the first call (at least
/// `min_ops` times). Returns the number of calls.
int repeat_for(double seconds, int min_ops, const std::function<void()>& op);

/// Per-layer counts a workload gathers from the layers' own counters, per
/// operation (epoch, mapping session or tick) unless noted. Spans add the
/// wall-clock figures. Layers a workload leaves idle stay 0.
struct LayerCounts {
  double ops = 0;  // operations in the traced phase (span normalization)
  // simnet
  double messages = 0;
  double wire_traversals = 0;
  // probe
  double host_probes = 0;
  double host_hits = 0;
  double switch_probes = 0;
  double switch_hits = 0;
  // mapper
  double explorations = 0;
  double merges = 0;
  double pruned = 0;
  double peak_model_vertices = 0;
  double mapped_switches = 0;
  // routing
  double routes = 0;
  double routes_checked_per_tick = 0;
  // analysis gate, per scenario (churn) or epoch (ktree)
  double gate_fast = 0;
  double gate_escalated = 0;
  double checker_rejections = 0;
  double divergences = 0;
  // service
  double snapshot_bytes = 0;
  double tick_observe_wall_ms = 0;
  double tick_remap_wall_ms = 0;
  double tick_wall_ms_p50 = 0;  // untraced, like the query figures below
  double tick_wall_ms_p99 = 0;
  double check_period_virtual_ms = 0;
  double stale_max_virtual_ms = 0;
  double remap_incremental = 0;
  double remap_full = 0;
  double remap_escalated = 0;
  double remap_incremental_tried = 0;
  double remap_probes = 0;
  double query_p50_us = 0;
  double query_p99_us = 0;
  double query_kqps = 0;
  double query_misses = 0;
  double query_degraded = 0;
  double catalog_published = 0;
  double catalog_rejected_unsafe = 0;
  double catalog_rejected_stale = 0;
  // tracing
  double untraced_op_ms = 0;  // median operation wall time, untraced
  double traced_op_ms = 0;    // the same, traced
};

/// Appends every per-layer metric: `counts` plus what the spans of the
/// traced phase recorded.
void add_layer_metrics(Result& result, const LayerCounts& counts);

/// Prints the self-time table and writes the Chrome trace when asked.
void finish_trace(const Options& options);

}  // namespace perfbench
