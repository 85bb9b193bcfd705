#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <new>
#include <ostream>
#include <stdexcept>

// -- counting operator new ---------------------------------------------------
//
// Every allocation of the process goes through here, so a span's allocation
// count is the difference of the calling thread's counter across the span.
// The counter is thread-local: allocations a span causes on other threads
// (a thread pool's workers) are not charged to it.

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (size == 0) {
    size = 1;
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + alignment -
                               1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

namespace detail {
std::atomic<bool> tracing_on{false};
}  // namespace detail

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kTopology:
      return "topology";
    case Layer::kSimnet:
      return "simnet";
    case Layer::kProbe:
      return "probe";
    case Layer::kMapper:
      return "mapper";
    case Layer::kRouting:
      return "routing";
    case Layer::kAnalysis:
      return "analysis";
    case Layer::kService:
      return "service";
  }
  return "?";
}

namespace {

std::vector<Site*>& registry() {
  static std::vector<Site*> sites;
  return sites;
}

struct SpanRecord {
  const Site* site = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t virtual_ns = -1;
  std::uint64_t allocs = 0;
  unsigned tid = 0;
};

std::mutex g_records_mutex;
std::vector<SpanRecord> g_records;        // guarded by g_records_mutex
std::vector<double> g_top_level_ns;  // guarded by g_records_mutex
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<unsigned> g_next_tid{1};
std::int64_t g_epoch_ns = 0;  // trace time origin, set by reset_trace()

/// One thread's span totals, indexed by Site::index.
struct ThreadTotals {
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t allocs = 0;
  };
  std::vector<Totals> sites;

  ThreadTotals() : sites(registry().size()) {}
  ~ThreadTotals() { flush(); }
  ThreadTotals(const ThreadTotals&) = delete;
  ThreadTotals& operator=(const ThreadTotals&) = delete;

  void flush() {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      Totals& t = sites[i];
      if (t.calls == 0) {
        continue;
      }
      Site& site = *registry()[i];
      site.calls.fetch_add(t.calls, std::memory_order_relaxed);
      site.total_ns.fetch_add(t.total_ns, std::memory_order_relaxed);
      site.self_ns.fetch_add(t.self_ns, std::memory_order_relaxed);
      site.allocs.fetch_add(t.allocs, std::memory_order_relaxed);
      t = Totals{};
    }
  }
};

thread_local ThreadTotals t_totals;
thread_local bool t_untraced = false;
thread_local Span* t_current = nullptr;
thread_local std::uint64_t t_op = 0;
thread_local std::int64_t t_op_top_level_ns = 0;
thread_local unsigned t_tid = 0;

unsigned thread_id() {
  if (t_tid == 0) {
    t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_tid;
}

}  // namespace

Site::Site(const char* site_name, Layer site_layer, bool is_hot)
    : name(site_name),
      layer(site_layer),
      hot(is_hot),
      index(registry().size()) {
  registry().push_back(this);
}

void flush_thread_totals() { t_totals.flush(); }

Untraced::Untraced() : previous_(t_untraced) { t_untraced = true; }
Untraced::~Untraced() { t_untraced = previous_; }

void Site::clear() {
  calls.store(0, std::memory_order_relaxed);
  total_ns.store(0, std::memory_order_relaxed);
  self_ns.store(0, std::memory_order_relaxed);
  allocs.store(0, std::memory_order_relaxed);
}

namespace sites {
Site topology_build{"topology.build_fabric", Layer::kTopology, false};
Site simnet_network{"simnet.Network", Layer::kSimnet, false};
}  // namespace sites

void set_tracing(bool on) {
  detail::tracing_on.store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Operation::Operation() {
  if (!tracing()) {
    return;
  }
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  previous_ = t_op;
  t_op = id_;
  t_op_top_level_ns = 0;
}

Operation::~Operation() {
  if (id_ == 0) {
    return;
  }
  const auto top_level_ns = static_cast<double>(t_op_top_level_ns);
  t_op = previous_;
  t_op_top_level_ns = 0;
  const std::lock_guard<std::mutex> lock(g_records_mutex);
  g_top_level_ns.push_back(top_level_ns);
}

void Span::begin(Site& site) {
  if (t_untraced) {
    return;
  }
  site_ = &site;
  parent_ = t_current;
  t_current = this;
  if (!site.hot) {
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  }
  allocs_at_start_ = t_allocs;
  start_ns_ = now_ns();
}

void Span::end() {
  const std::int64_t end_ns = now_ns();
  const std::int64_t duration = end_ns - start_ns_;
  const std::uint64_t allocs = t_allocs - allocs_at_start_;
  const Site& site = *site_;
  ThreadTotals::Totals& totals = t_totals.sites[site.index];
  ++totals.calls;
  totals.total_ns += static_cast<std::uint64_t>(duration);
  totals.self_ns +=
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, duration - child_ns_));
  totals.allocs += allocs;
  t_current = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration;
  } else if (t_op != 0) {
    t_op_top_level_ns += duration;
  }
  if (site.hot) {
    return;
  }
  // Hot children have no id; the nearest coarse ancestor is the parent.
  std::uint64_t parent_id = 0;
  for (const Span* s = parent_; s != nullptr; s = s->parent_) {
    if (s->id_ != 0) {
      parent_id = s->id_;
      break;
    }
  }
  const SpanRecord record{&site,    id_,    parent_id,   t_op,
                          start_ns_, end_ns, virtual_ns_, allocs,
                          thread_id()};
  const std::lock_guard<std::mutex> lock(g_records_mutex);
  g_records.push_back(record);
}

void reset_trace() {
  t_totals.sites.assign(registry().size(), ThreadTotals::Totals{});
  for (Site* site : registry()) {
    site->clear();
  }
  const std::lock_guard<std::mutex> lock(g_records_mutex);
  g_records.clear();
  g_top_level_ns.clear();
  g_epoch_ns = now_ns();
}

std::vector<double> operation_top_level_ns() {
  const std::lock_guard<std::mutex> lock(g_records_mutex);
  return g_top_level_ns;
}

std::size_t span_records() {
  const std::lock_guard<std::mutex> lock(g_records_mutex);
  return g_records.size();
}

std::vector<double> layer_self_ns() {
  flush_thread_totals();
  std::vector<double> self(kNumLayers, 0.0);
  for (const Site* site : registry()) {
    self[static_cast<std::size_t>(site->layer)] +=
        static_cast<double>(site->self_ns.load(std::memory_order_relaxed));
  }
  return self;
}

void print_trace_table(std::ostream& os, const std::string& title) {
  flush_thread_totals();
  std::vector<const Site*> used;
  double all_self = 0.0;
  for (const Site* site : registry()) {
    if (site->calls.load(std::memory_order_relaxed) > 0) {
      used.push_back(site);
      all_self += static_cast<double>(site->self_ns.load());
    }
  }
  std::sort(used.begin(), used.end(), [](const Site* a, const Site* b) {
    return a->self_ns.load() > b->self_ns.load();
  });
  const auto pct = [&](double ns) {
    return all_self > 0.0 ? 100.0 * ns / all_self : 0.0;
  };
  os << "=== " << title << ": self time by site ===\n";
  os << std::left << std::setw(44) << "site" << std::right << std::setw(12)
     << "calls" << std::setw(12) << "total ms" << std::setw(12) << "self ms"
     << std::setw(8) << "self%" << std::setw(14) << "allocs" << "\n";
  os << std::fixed << std::setprecision(2);
  for (const Site* site : used) {
    const double self = static_cast<double>(site->self_ns.load());
    os << std::left << std::setw(44) << site->name << std::right
       << std::setw(12) << site->calls.load() << std::setw(12)
       << to_ms(static_cast<double>(site->total_ns.load())) << std::setw(12)
       << to_ms(self) << std::setw(8) << pct(self) << std::setw(14)
       << site->allocs.load() << "\n";
  }
  os << "=== " << title << ": self time by layer ===\n";
  const std::vector<double> layers = layer_self_ns();
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    os << std::left << std::setw(12) << to_string(static_cast<Layer>(l))
       << std::right << std::setw(12) << to_ms(layers[l]) << " ms"
       << std::setw(8) << pct(layers[l]) << "%\n";
  }
  os << std::defaultfloat << std::setprecision(6);
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  flush_thread_totals();
  const std::lock_guard<std::mutex> lock(g_records_mutex);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << std::fixed << std::setprecision(3);
  bool first = true;
  for (const SpanRecord& r : g_records) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << r.site->name << "\",\"cat\":\""
        << to_string(r.site->layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << r.tid << ",\"ts\":"
        << static_cast<double>(r.start_ns - g_epoch_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"op\":" << r.op << ",\"allocs\":" << r.allocs;
    if (r.virtual_ns >= 0) {
      out << ",\"virtual_ms\":" << static_cast<double>(r.virtual_ns) / 1e6;
    }
    out << "}}";
  }
  out << "\n],\"otherData\":{\"sites\":{";
  first = true;
  for (const Site* site : registry()) {
    if (site->calls.load() == 0) {
      continue;
    }
    out << (first ? "\n" : ",\n");
    first = false;
    out << "\"" << site->name << "\":{\"layer\":\"" << to_string(site->layer)
        << "\",\"calls\":" << site->calls.load()
        << ",\"total_ms\":" << to_ms(static_cast<double>(site->total_ns.load()))
        << ",\"self_ms\":" << to_ms(static_cast<double>(site->self_ns.load()))
        << ",\"allocs\":" << site->allocs.load() << "}";
  }
  out << "\n}}}\n";
}

}  // namespace perfbench
