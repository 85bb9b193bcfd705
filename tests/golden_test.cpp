// Differential goldens for the dense-index hot-path rewrite.
//
// Every checked-in corpus case plus both paper figures is mapped with the
// production BerkeleyMapper and digested into a text record pinning
// everything an observer could see: the probe counters, the exact virtual
// clock, the model statistics, the full probe transcript (route by route),
// and the extracted map serialized as "sanmap topology v1". The digests are
// compared byte-for-byte against golden files recorded *before* the flat
// adjacency-array rewrites landed, so any behavioral drift — one extra
// probe, a reordered transcript line, a different port assignment in the
// map — fails loudly.
//
// The routes-*.golden files pin route tables the same way: per table, a
// digest over every route's (src, dst, nodes, wires, turns) and the deadlock
// certificate's summary (dependency count, order length and a digest of the
// topological order), so a change to route emission or certification that
// moves a single cable choice or apex pick fails.
//
// Regenerating (only legitimate when a PR intentionally changes mapper or
// routing behavior, never for a "pure performance" change):
//   SANMAP_UPDATE_GOLDEN=1 ./build/tests/golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certificates.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/serialize.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap {
namespace {

namespace fs = std::filesystem;

/// Same depth policy as the oracle stack: the §3.1.4 bound when the paper's
/// standing assumptions hold, else a generous structural bound.
int depth_for(const topo::Topology& t, topo::NodeId mapper) {
  if (t.num_switches() >= 1 && t.num_hosts() >= 2 && topo::connected(t)) {
    return topo::search_depth(t, mapper);
  }
  return std::max<int>(1, static_cast<int>(2 * t.num_wires() + 3));
}

/// Runs one full mapping session and digests every observable output.
std::string digest(const verify::ScenarioCase& c, int window) {
  simnet::Network net(c.network, c.collision);
  const simnet::FaultSchedule schedule = c.schedule();
  net.attach_faults(&schedule);

  probe::ProbeOptions options;
  options.record_transcript = true;
  const topo::NodeId mapper_host = c.mapper_node();
  probe::ProbeEngine engine(net, mapper_host, options);

  mapper::MapperConfig config;
  config.search_depth = depth_for(c.network, mapper_host);
  config.pipeline_window = window;
  const mapper::MapResult result = mapper::BerkeleyMapper(engine, config).run();

  std::ostringstream os;
  os << "# sanmap golden v1\n";
  os << "case " << c.name << " window " << window << "\n";
  const probe::ProbeCounters& pc = result.probes;
  os << "counters " << pc.host_probes << ' ' << pc.host_hits << ' '
     << pc.switch_probes << ' ' << pc.switch_hits << "\n";
  os << "elapsed_ns " << result.elapsed.to_ns() << "\n";
  os << "explorations " << result.explorations << " merges " << result.merges
     << " pruned " << result.pruned << " peak " << result.peak_model_vertices
     << "\n";
  os << "transcript\n";
  engine.write_transcript(os);
  os << "end transcript\n";
  os << "map\n" << topo::to_text(result.map) << "end map\n";
  return os.str();
}

fs::path golden_dir() { return fs::path(SANMAP_GOLDEN_DIR); }

bool update_mode() { return std::getenv("SANMAP_UPDATE_GOLDEN") != nullptr; }

/// Compares `actual` against the named golden file, or rewrites the file in
/// update mode.
void check_golden(const std::string& golden_name, const std::string& actual) {
  const fs::path path = golden_dir() / (golden_name + ".golden");
  if (update_mode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — record it with SANMAP_UPDATE_GOLDEN=1 on a known-good build";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) {
    return;
  }
  // Pinpoint the first diverging line for a readable failure.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line_no = 0;
  while (true) {
    const bool have_want = static_cast<bool>(std::getline(want, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    ++line_no;
    if (!have_want && !have_got) {
      break;
    }
    if (!have_want || !have_got || want_line != got_line) {
      FAIL() << golden_name << ": first divergence at line " << line_no
             << "\n  golden: " << (have_want ? want_line : "<eof>")
             << "\n  actual: " << (have_got ? got_line : "<eof>");
    }
  }
  FAIL() << golden_name << ": digests differ";  // unreachable belt-and-braces
}

TEST(Golden, CorpusCasesAreBitIdenticalToRecordings) {
  std::vector<fs::path> cases;
  for (const auto& entry : fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      cases.push_back(entry.path());
    }
  }
  std::sort(cases.begin(), cases.end());
  ASSERT_FALSE(cases.empty());
  for (const fs::path& path : cases) {
    SCOPED_TRACE(path.filename().string());
    const verify::ScenarioCase c = verify::read_case_file(path.string());
    check_golden(path.stem().string() + "-serial", digest(c, /*window=*/1));
  }
}

TEST(Golden, Figure4SubclusterSerial) {
  verify::ScenarioCase c;
  c.name = "fig4-subcluster-c";
  c.network = topo::now_subcluster(topo::Subcluster::kC, "C");
  c.mapper_host = "C.util";
  check_golden("fig4-serial", digest(c, /*window=*/1));
}

TEST(Golden, Figure5NowClusterSerial) {
  verify::ScenarioCase c;
  c.name = "fig5-now100";
  c.network = topo::now_cluster();
  c.mapper_host = "C.util";
  check_golden("fig5-serial", digest(c, /*window=*/1));
}

TEST(Golden, Figure4SubclusterPipelined) {
  // Window 8 exercises the batched-frontier path (ProbePipeline), which the
  // dense-index rewrite must leave equally untouched.
  verify::ScenarioCase c;
  c.name = "fig4-subcluster-c";
  c.network = topo::now_subcluster(topo::Subcluster::kC, "C");
  c.mapper_host = "C.util";
  check_golden("fig4-window8", digest(c, /*window=*/8));
}

TEST(Golden, Figure5NowClusterPipelined) {
  verify::ScenarioCase c;
  c.name = "fig5-now100";
  c.network = topo::now_cluster();
  c.mapper_host = "C.util";
  check_golden("fig5-window8", digest(c, /*window=*/8));
}

// ------------------------------------------------------------ route tables

/// 64-bit FNV-1a over a stream of integers (each fed as 8 little-endian
/// bytes), so a digest does not depend on the host's integer widths.
class Fnv {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (bits & 0xffU)) * 1099511628211ULL;
      bits >>= 8;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(static_cast<std::int64_t>(values.size()));
    for (const T& v : values) {
      add(static_cast<std::int64_t>(v));
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// The component holding the first host, compacted: what a mapper started
/// there discovers, and what `sanmap lint` routes over.
topo::Topology mapped_component(const topo::Topology& fabric) {
  topo::Topology local = fabric;
  std::vector<int> component;
  topo::components(local, component);
  const topo::NodeId anchor = local.hosts().front();
  for (const topo::NodeId n : local.nodes()) {
    if (component[n] != component[anchor]) {
      local.remove_node(n);
    }
  }
  return local.compacted();
}

/// One table's record: route count, hop summary, the route digest and the
/// deadlock certificate summary.
void digest_table(std::ostream& os, const topo::Topology& t,
                  bool fix_dominant, std::uint64_t seed) {
  routing::UpDownOptions options;
  options.fix_dominant_switches = fix_dominant;
  const routing::RoutingResult result =
      routing::compute_updown_routes(t, options, seed);
  Fnv routes;
  for (const auto& [key, route] : result.routes) {
    routes.add(key.first);
    routes.add(key.second);
    routes.add_all(route.nodes);
    routes.add_all(route.wires);
    routes.add_all(route.turns);
  }
  const auto paths = routing::route_channel_paths(t, result);
  const analysis::DeadlockCertificate cert =
      analysis::build_deadlock_certificate(t, paths);
  Fnv order;
  for (const routing::Channel& c : cert.topological_order) {
    order.add(c.wire);
    order.add(c.a_to_b ? 1 : 0);
  }
  os << "table fix_dominant " << (fix_dominant ? 1 : 0) << " seed " << seed
     << "\n";
  os << "  root " << t.name(result.orientation.root()) << " relabeled "
     << result.orientation.relabeled_switches() << "\n";
  os << "  routes " << result.routes.size() << " max_hops "
     << result.max_hops() << " digest " << routes.hex() << "\n";
  os << "  certificate deadlock_free " << (cert.deadlock_free ? 1 : 0)
     << " dependencies " << cert.dependencies << " order "
     << cert.topological_order.size() << " order_digest " << order.hex()
     << " cycle " << cert.cycle.size() << "\n";
}

/// Every table a case pins: the dominant-switch fix on and off, two seeds.
std::string route_digest(const std::string& name, const topo::Topology& t) {
  std::ostringstream os;
  os << "# sanmap route golden v1\n";
  os << "case " << name << " hosts " << t.num_hosts() << " switches "
     << t.num_switches() << " wires " << t.num_wires() << "\n";
  for (const bool fix : {true, false}) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      digest_table(os, t, fix, seed);
    }
  }
  return os.str();
}

/// A k-ary n-tree (Petrini & Vanneschi): n levels of k^(n-1) switches with
/// k down and k up ports each, k hosts on every leaf. Switch w at level l
/// reaches, through up port d, the switch above whose word differs from w
/// in digit l only, taking digit value d.
topo::Topology k_ary_n_tree(int k, int n) {
  int per_level = 1;
  for (int i = 0; i + 1 < n; ++i) {
    per_level *= k;
  }
  topo::Topology t;
  std::vector<std::vector<topo::NodeId>> level(static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    for (int w = 0; w < per_level; ++w) {
      level[static_cast<std::size_t>(l)].push_back(t.add_switch());
    }
  }
  for (int w = 0; w < per_level; ++w) {
    for (int j = 0; j < k; ++j) {
      t.connect(t.add_host(), 0, level[0][static_cast<std::size_t>(w)],
                static_cast<topo::Port>(j));
    }
  }
  int place = 1;
  for (int l = 0; l + 1 < n; ++l) {
    const auto& below = level[static_cast<std::size_t>(l)];
    const auto& above = level[static_cast<std::size_t>(l + 1)];
    for (int w = 0; w < per_level; ++w) {
      const int digit = (w / place) % k;
      for (int d = 0; d < k; ++d) {
        const int upper = w + (d - digit) * place;
        t.connect(below[static_cast<std::size_t>(w)],
                  static_cast<topo::Port>(k + d),
                  above[static_cast<std::size_t>(upper)],
                  static_cast<topo::Port>(digit));
      }
    }
    place *= k;
  }
  return t;
}

TEST(GoldenRoutes, CorpusCases) {
  std::vector<fs::path> cases;
  for (const auto& entry :
       fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      cases.push_back(entry.path());
    }
  }
  std::sort(cases.begin(), cases.end());
  ASSERT_FALSE(cases.empty());
  for (const fs::path& path : cases) {
    SCOPED_TRACE(path.filename().string());
    const verify::ScenarioCase c = verify::read_case_file(path.string());
    check_golden("routes-" + path.stem().string(),
                 route_digest(c.name, mapped_component(c.network)));
  }
}

TEST(GoldenRoutes, NowSystems) {
  const std::pair<topo::NowSystem, const char*> systems[] = {
      {topo::NowSystem::kC, "now-c"},
      {topo::NowSystem::kCA, "now-ca"},
      {topo::NowSystem::kCAB, "now-cab"}};
  for (const auto& [system, name] : systems) {
    SCOPED_TRACE(name);
    check_golden(std::string("routes-") + name,
                 route_digest(name, topo::now_system(system)));
  }
}

TEST(GoldenRoutes, FourAryThreeTree) {
  check_golden("routes-ktree-4-3",
               route_digest("ktree-4-3", k_ary_n_tree(4, 3)));
}

TEST(GoldenRoutes, MultiPodParallelCables) {
  check_golden("routes-multi-pod-default",
               route_digest("multi-pod-default", topo::multi_pod()));
}

TEST(GoldenRoutes, Hypercube) {
  check_golden("routes-hypercube-4-2",
               route_digest("hypercube-4-2", topo::hypercube(4, 2)));
}

}  // namespace
}  // namespace sanmap
