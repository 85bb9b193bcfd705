// The result line, the per-layer metric set and the traced run's outputs.
#include <charconv>
#include <iostream>
#include <sstream>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, end) : std::string("0");
}

std::uint64_t load(const std::atomic<std::uint64_t>& v) {
  return v.load(std::memory_order_relaxed);
}

/// Mean wall time per call of the given sites, in milliseconds.
double mean_ms(std::initializer_list<const Site*> group) {
  double ns = 0.0;
  double calls = 0.0;
  for (const Site* site : group) {
    ns += static_cast<double>(load(site->total_ns));
    calls += static_cast<double>(load(site->calls));
  }
  return ratio(to_ms(ns), calls);
}

double allocs_per_call(const Site& site) {
  return ratio(static_cast<double>(load(site.allocs)),
               static_cast<double>(load(site.calls)));
}

}  // namespace

std::string to_json(const Result& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void report_failure(const char* what, std::uint64_t count) {
  static int reported = 0;
  if (reported < 20) {
    ++reported;
    std::cerr << "perfbench: check failed: " << what;
    if (count > 1) {
      std::cerr << " (" << count << " times)";
    }
    std::cerr << "\n";
  }
}

int repeat_for(double seconds, int min_ops, const std::function<void()>& op) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  int ops = 0;
  while (ops < min_ops || now_ns() < deadline) {
    op();
    ++ops;
  }
  return ops;
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.add("setup_s", e2e.setup_s, "s");
  result.add("epoch_wall_ms.p50", e2e.epoch_wall_ms_p50, "ms");
  result.add("map_virtual_ms", e2e.map_virtual_ms, "ms");
  result.add("map_probes", e2e.map_probes, "count");
  result.add("stale_virtual_ms.mean", mean(e2e.stale_virtual_ms), "ms");
  // The churn workload sees about a hundred stale windows per run: the 90th
  // percentile is the highest with ten windows beyond it.
  result.add("stale_virtual_ms.p90", quantile(e2e.stale_virtual_ms, 0.9),
             "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  result.add("ops_ok_frac", result.ok_fraction(), "ratio");
}

void add_layer_metrics(Result& result, const LayerCounts& c) {
  namespace s = sites;
  flush_thread_totals();
  const double ops = c.ops;
  const auto per_op = [&](const Site& site) {
    return ratio(static_cast<double>(load(site.calls)), ops);
  };

  result.add("simnet.messages", c.messages, "count/op");
  result.add("simnet.wire_traversals", c.wire_traversals, "count/op");
  result.add("simnet.traversals_per_message",
             ratio(c.wire_traversals, c.messages), "ratio");
  result.add("simnet.send.wall_ns", 1e6 * mean_ms({&s::simnet_send}), "ns");

  result.add("probe.host_probes", c.host_probes, "count/op");
  result.add("probe.switch_probes", c.switch_probes, "count/op");
  result.add("probe.host_hit_ratio", ratio(c.host_hits, c.host_probes),
             "ratio");
  result.add("probe.switch_hit_ratio", ratio(c.switch_hits, c.switch_probes),
             "ratio");
  // Per probe the engine counted where the workload reports its counts, per
  // call into the probe layer otherwise.
  const std::initializer_list<const Site*> probe_sites = {
      &s::probe_probe, &s::probe_switch, &s::probe_host, &s::probe_echo};
  const double probes = (c.host_probes + c.switch_probes) * ops;
  double probe_ns = 0.0;
  for (const Site* site : probe_sites) {
    probe_ns += static_cast<double>(load(site->total_ns));
  }
  result.add("probe.wall_ns_per_probe",
             probes > 0 ? probe_ns / probes : 1e6 * mean_ms(probe_sites),
             "ns");

  const double mapper_calls =
      static_cast<double>(load(s::mapper_berkeley_run.calls)) +
      static_cast<double>(load(s::mapper_robust_run.calls)) +
      static_cast<double>(load(s::mapper_incremental_run.calls));
  result.add("mapper.run.wall_ms",
             mean_ms({&s::mapper_berkeley_run, &s::mapper_robust_run,
                      &s::mapper_incremental_run}),
             "ms");
  result.add("mapper.run.allocs",
             ratio(static_cast<double>(load(s::mapper_berkeley_run.allocs) +
                                       load(s::mapper_robust_run.allocs) +
                                       load(s::mapper_incremental_run.allocs)),
                   mapper_calls),
             "count/call");
  result.add("mapper.explorations", c.explorations, "count/op");
  result.add("mapper.merges", c.merges, "count/op");
  result.add("mapper.pruned", c.pruned, "count/op");
  result.add("mapper.peak_model_vertices", c.peak_model_vertices, "count/op");
  result.add("mapper.new_switch_ratio",
             ratio(c.mapped_switches, c.explorations), "ratio");

  result.add("routing.compute_routes.wall_ms", mean_ms({&s::routing_compute}),
             "ms");
  result.add("routing.compute_routes.calls", per_op(s::routing_compute),
             "count/op");
  result.add("routing.compute_routes.allocs",
             allocs_per_call(s::routing_compute), "count/call");
  result.add("routing.analyze_routes.wall_ms", mean_ms({&s::routing_analyze}),
             "ms");
  result.add("routing.analyze_routes.calls", per_op(s::routing_analyze),
             "count/op");
  result.add("routing.analyze_routes.allocs",
             allocs_per_call(s::routing_analyze), "count/call");
  result.add("routing.routes", c.routes, "count/op");
  result.add("routing.check_routes.routes_per_tick", c.routes_checked_per_tick,
             "count");

  result.add("analysis.analyze.wall_ms", mean_ms({&s::analysis_analyze}),
             "ms");
  result.add("analysis.analyze.calls", per_op(s::analysis_analyze),
             "count/op");
  result.add("analysis.gate.fast", c.gate_fast, "count");
  result.add("analysis.gate.escalated", c.gate_escalated, "count");
  result.add("analysis.gate.fast_ratio",
             ratio(c.gate_fast, c.gate_fast + c.gate_escalated), "ratio");
  result.add("analysis.gate.checker_rejections", c.checker_rejections,
             "count");
  result.add("analysis.gate.divergences", c.divergences, "count");

  result.add("service.build_snapshot.wall_ms",
             mean_ms({&s::service_build_snapshot}), "ms");
  result.add("service.publish.wall_ms",
             mean_ms({&s::service_publish, &s::service_publish_if_current}),
             "ms");
  result.add("service.encode.wall_ms", mean_ms({&s::service_encode}), "ms");
  result.add("service.decode.wall_ms", mean_ms({&s::service_decode}), "ms");
  result.add("service.snapshot_bytes", c.snapshot_bytes, "B");
  result.add("service.tick.observe.wall_ms", c.tick_observe_wall_ms, "ms");
  result.add("service.tick.remap.wall_ms", c.tick_remap_wall_ms, "ms");
  result.add("service.tick.wall_ms.p50", c.tick_wall_ms_p50, "ms");
  result.add("service.tick.wall_ms.p99", c.tick_wall_ms_p99, "ms");
  result.add("service.check_period_virtual_ms", c.check_period_virtual_ms,
             "ms");
  result.add("service.stale.max_virtual_ms", c.stale_max_virtual_ms, "ms");
  result.add("service.remap.incremental", c.remap_incremental, "count");
  result.add("service.remap.full", c.remap_full, "count");
  result.add("service.remap.escalated", c.remap_escalated, "count");
  result.add("service.remap.incremental_success_ratio",
             ratio(c.remap_incremental, c.remap_incremental_tried), "ratio");
  result.add("service.remap.probes", c.remap_probes, "count");
  result.add("service.query.wall_us", 1e3 * mean_ms({&s::service_query}),
             "us");
  result.add("service.query.p50_us", c.query_p50_us, "us");
  result.add("service.query.p99_us", c.query_p99_us, "us");
  result.add("service.query.kqps", c.query_kqps, "kq/s");
  result.add("service.query_batch.wall_ms",
             mean_ms({&s::service_query_batch}), "ms");
  result.add("service.query.misses", c.query_misses, "count");
  result.add("service.query.degraded", c.query_degraded, "count");
  result.add("service.catalog.published", c.catalog_published, "count");
  result.add("service.catalog.rejected_unsafe", c.catalog_rejected_unsafe,
             "count");
  result.add("service.catalog.rejected_stale", c.catalog_rejected_stale,
             "count");

  const std::vector<double> self = layer_self_ns();
  double all_self = 0.0;
  for (const double v : self) {
    all_self += v;
  }
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    result.add(std::string("layer.") + to_string(static_cast<Layer>(l)) +
                   ".self_share",
               ratio(self[l], all_self), "ratio");
  }

  result.add("trace.overhead_frac",
             ratio(c.traced_op_ms, c.untraced_op_ms) - 1.0, "ratio");
  result.add("trace.top_level_vs_untraced",
             ratio(to_ms(median(operation_top_level_ns())), c.untraced_op_ms),
             "ratio");
  result.add("trace.spans", static_cast<double>(span_records()), "count");
}

void finish_trace(const Options& options) {
  for (const std::string& site : unresolved_wraps()) {
    std::cerr << "perfbench: warning: " << site
              << " is not wrapped (symbol not found); its spans are missing\n";
  }
  print_trace_table(std::cout, options.workload);
  if (!options.trace_out.empty()) {
    write_chrome_trace(options.trace_out);
    std::cout << "trace written to " << options.trace_out << "\n";
  }
}

}  // namespace perfbench
