// Spans, operation ids and allocation counts for the benchmark's traced runs.
//
// Every span is opened by the benchmark's own code: either around a call it
// makes into a layer (BerkeleyMapper::run, MapCatalog::publish, ...) or in a
// link-time wrapper (wrap.cpp) that the linker puts in front of a layer's
// public function, so calls one layer makes into another are timed too. The
// sources under src/ carry no instrumentation.
//
// A Site is one instrumented function. Coarse sites keep one record per call
// (written to the Chrome trace); hot sites — functions called per probe or
// per query — only add to their totals. Both count toward the self time of
// the span they run inside, so a layer's self time is its spans' durations
// minus their children's, whichever kind the children are.
//
// Tracing is off unless set_tracing(true) was called before any thread that
// opens spans starts; with tracing off a Span costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// The repository's modules on the epoch path, in pipeline order.
enum class Layer : std::uint8_t {
  kTopology,
  kSimnet,
  kProbe,
  kMapper,
  kRouting,
  kAnalysis,
  kService,
};
inline constexpr std::size_t kNumLayers = 7;
const char* to_string(Layer layer);

struct Site {
  /// Registers the site with the trace; sites are static objects.
  Site(const char* name, Layer layer, bool hot);
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const char* name;  // "<module>.<function>"
  Layer layer;
  bool hot;
  std::size_t index;  // registration order
  // Totals over all threads. Each thread adds to its own copy while it
  // runs and folds it in here when it ends or when flush_thread_totals()
  // is called on it, so spans on parallel threads do not contend.
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> self_ns{0};
  std::atomic<std::uint64_t> allocs{0};

  void clear();
};

/// Folds the calling thread's span totals into the sites.
void flush_thread_totals();

/// Nanoseconds as milliseconds.
inline double to_ms(double ns) { return ns / 1e6; }

namespace sites {
// Opened by the workloads around their own calls (trace.cpp).
extern Site topology_build;
extern Site simnet_network;
// Opened by the link-time wrappers (wrap.cpp).
extern Site topology_core;
extern Site topology_isomorphic;
extern Site simnet_send;
extern Site probe_probe;
extern Site probe_switch;
extern Site probe_host;
extern Site probe_echo;
extern Site mapper_berkeley_run;
extern Site mapper_robust_run;
extern Site mapper_incremental_run;
extern Site routing_compute;
extern Site routing_analyze;
extern Site routing_check;
extern Site routing_distribute;
extern Site analysis_analyze;
extern Site analysis_reanalyze;
extern Site analysis_delta_check;
extern Site service_build_snapshot;
extern Site service_encode;
extern Site service_decode;
extern Site service_publish;
extern Site service_publish_if_current;
extern Site service_bootstrap;
extern Site service_tick;
extern Site service_query;
extern Site service_query_batch;
extern Site simnet_churn_compile;
}  // namespace sites

/// Wrapped sites whose original symbol the link did not find (a renamed or
/// re-signed function): their spans are missing from traced runs.
std::vector<std::string> unresolved_wraps();

namespace detail {
extern std::atomic<bool> tracing_on;
}  // namespace detail

void set_tracing(bool on);
inline bool tracing() {
  return detail::tracing_on.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// Peak resident set size of the process, in MiB (getrusage).
double peak_rss_mb();

/// An operation — one epoch, tick or mapping session. Spans opened on this
/// thread while it is alive carry its id, and the time its top-level spans
/// take is summed so it can be compared with the operation's wall time.
class Operation {
 public:
  Operation();
  ~Operation();
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t previous_ = 0;
};

/// While alive, spans opened on this thread are not recorded: for the
/// benchmark's own output checks, which are not part of the workload.
class Untraced {
 public:
  Untraced();
  ~Untraced();
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  bool previous_;
};

/// One timed call. Spans nest per thread in construction order.
class Span {
 public:
  explicit Span(Site& site) {
    if (tracing()) {
      begin(site);
    }
  }
  ~Span() {
    if (site_ != nullptr) {
      end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches the layer's own virtual-clock reading to the span record.
  void set_virtual_ns(std::int64_t ns) { virtual_ns_ = ns; }

 private:
  void begin(Site& site);
  void end();

  Site* site_ = nullptr;
  Span* parent_ = nullptr;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_ = 0;
  std::int64_t child_ns_ = 0;
  std::uint64_t allocs_at_start_ = 0;
  std::int64_t virtual_ns_ = -1;
};

/// Clears every site and record (call between untraced and traced phases).
void reset_trace();
/// Per finished operation of the traced phase: the summed duration of the
/// spans opened directly inside it, in nanoseconds.
std::vector<double> operation_top_level_ns();
/// Coarse span records kept for the Chrome trace.
std::size_t span_records();
/// Self time of each layer over all sites, in nanoseconds.
std::vector<double> layer_self_ns();
/// Per-site and per-layer self-time table.
void print_trace_table(std::ostream& os, const std::string& title);
/// Chrome/Perfetto trace-event JSON of the recorded spans.
void write_chrome_trace(const std::string& path);

}  // namespace perfbench
