// Pipelined probing: map time vs outstanding-probe window (DESIGN.md §11).
//
// Sweeps window ∈ {1, 2, 4, 8, 16} over three scenario families and, for
// every run, checks the pipeline's core contract against a serial
// baseline on the same fabric:
//
//  * probe counters identical and maps isomorphic at every window
//    (pipelining is a pure re-timing);
//  * window = 1 reproduces the serial engine's elapsed() exactly, to the
//    nanosecond;
//  * elapsed() never exceeds serial.
//
// Scenarios: the Figure-5 100-node NOW fabric with full participation
// (timeouts come from free ports), the same fabric with Figure-9 partial
// participation (the timeout-heavy case — most host-probes go to hosts
// with no daemon and burn a full probe_timeout), and every quiescent
// connected corpus topology under tests/corpus (the source tree's copy
// unless --corpus names another directory). Any contract violation — a
// window-8 speedup below 3x on the timeout-heavy scenario, or a corpus
// directory that is unreadable or yields no scenario — makes the binary
// exit nonzero, so CI can run it as an acceptance gate.
//
// Results are emitted to BENCH_pipeline.json via JsonReport.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;

struct Scenario {
  std::string name;
  topo::Topology network;
  topo::NodeId mapper_host = topo::kInvalidNode;
  std::vector<topo::NodeId> participants;  // empty = everyone answers
  bool timeout_heavy = false;              // the >= 3x acceptance scenario
};

mapper::MapResult run_window(const Scenario& s, int window) {
  simnet::Network net(s.network);
  probe::ProbeOptions options;
  options.participants = s.participants;
  probe::ProbeEngine engine(net, s.mapper_host, options);
  mapper::MapperConfig config;
  config.search_depth = topo::search_depth(s.network, s.mapper_host);
  config.pipeline_window = window;
  return mapper::BerkeleyMapper(engine, config).run();
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("corpus", SANMAP_CORPUS_DIR,
               "directory of .sancase topologies");
  flags.define("participants", "5",
               "daemons running in the timeout-heavy scenario");
  flags.define("smoke", "false",
               "CI mode: sweep only windows 1 and 8 on the corpus");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");

  std::vector<Scenario> scenarios;
  {
    Scenario full;
    full.name = "fig5-full-participation";
    full.network = topo::now_cluster();
    full.mapper_host = bench::mapper_host_of(full.network);
    scenarios.push_back(std::move(full));

    // Figure-9 partial participation: only a handful of hosts run a
    // daemon, so almost every host-probe times out — the paper's §5
    // worst case and the pipeline's best case.
    Scenario partial;
    partial.name = "fig9-partial-participation";
    partial.network = topo::now_cluster();
    partial.mapper_host = bench::mapper_host_of(partial.network);
    partial.timeout_heavy = true;
    const auto count = static_cast<std::size_t>(
        std::max<std::int64_t>(1, flags.get_int("participants")));
    partial.participants.push_back(partial.mapper_host);
    for (const topo::NodeId h : partial.network.hosts()) {
      if (partial.participants.size() >= count) {
        break;
      }
      if (h != partial.mapper_host) {
        partial.participants.push_back(h);
      }
    }
    scenarios.push_back(std::move(partial));
  }
  {
    std::vector<std::filesystem::path> paths;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(flags.get("corpus"), ec)) {
      if (entry.path().extension() == ".sancase") {
        paths.push_back(entry.path());
      }
    }
    std::sort(paths.begin(), paths.end());
    if (ec) {
      std::cerr << "corpus directory unreadable: " << flags.get("corpus")
                << " (" << ec.message() << ")\n";
      return 1;
    }
    const std::size_t fixed = scenarios.size();
    for (const auto& path : paths) {
      const verify::ScenarioCase c = verify::read_case_file(path.string());
      // Equivalence is defined on quiescent sessions; search_depth needs a
      // connected fabric with at least one switch.
      if (!c.quiescent() || !topo::connected(c.network) ||
          c.network.num_switches() == 0 || c.network.num_hosts() < 2) {
        continue;
      }
      Scenario s;
      s.name = "corpus/" + c.name;
      s.network = c.network;
      s.mapper_host = c.mapper_node();
      scenarios.push_back(std::move(s));
    }
    if (scenarios.size() == fixed) {
      std::cerr << "corpus directory " << flags.get("corpus")
                << " yields no quiescent connected scenario\n";
      return 1;
    }
  }

  const std::vector<int> windows =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};

  std::cout << "=== Pipelined probing: map time vs outstanding-probe window "
               "===\n";
  std::vector<std::string> header{"scenario"};
  for (const int w : windows) {
    header.push_back("w=" + std::to_string(w) + " (ms)");
  }
  header.push_back("speedup@8");
  header.push_back("equiv");
  common::Table table(header);

  bench::JsonReport report("pipeline");
  bool ok = true;
  for (const Scenario& s : scenarios) {
    const mapper::MapResult serial = run_window(s, 1);
    std::vector<std::string> row{s.name};
    double speedup_at_8 = 1.0;
    bool equiv = true;
    for (const int w : windows) {
      const mapper::MapResult result = run_window(s, w);
      if (!(result.probes == serial.probes)) {
        std::cerr << s.name << " w=" << w
                  << ": probe counters diverge from serial\n";
        equiv = false;
      }
      if (!topo::isomorphic(result.map, serial.map)) {
        std::cerr << s.name << " w=" << w
                  << ": map is not isomorphic to the serial map\n";
        equiv = false;
      }
      if (w == 1 && result.elapsed != serial.elapsed) {
        std::cerr << s.name << ": window 1 elapsed " << result.elapsed
                  << " != serial " << serial.elapsed << "\n";
        equiv = false;
      }
      if (result.elapsed > serial.elapsed) {
        std::cerr << s.name << " w=" << w << ": elapsed " << result.elapsed
                  << " exceeds serial " << serial.elapsed << "\n";
        equiv = false;
      }
      const double speedup =
          result.elapsed.to_ms() > 0.0
              ? serial.elapsed.to_ms() / result.elapsed.to_ms()
              : 1.0;
      if (w == 8) {
        speedup_at_8 = speedup;
      }
      row.push_back(common::fmt(result.elapsed.to_ms(), 1));
      report.add(s.name, "window" + std::to_string(w) + "_ms",
                 result.elapsed.to_ms());
      report.add(s.name, "window" + std::to_string(w) + "_speedup", speedup);
    }
    report.add(s.name, "probes", static_cast<double>(serial.probes.total()));
    report.add(s.name, "equiv_ok", equiv ? 1 : 0);
    row.push_back(common::fmt(speedup_at_8, 2) + "x");
    row.push_back(equiv ? "ok" : "WRONG");
    table.add_row(row);
    ok = ok && equiv;
    if (s.timeout_heavy && speedup_at_8 < 3.0) {
      std::cerr << s.name << ": window-8 speedup " << speedup_at_8
                << "x is below the 3x acceptance bar\n";
      ok = false;
    }
  }
  std::cout << table << "\n";
  report.write();
  if (!ok) {
    std::cerr << "pipeline equivalence/speedup checks FAILED\n";
    return 1;
  }
  std::cout << "all windows: counters identical, maps isomorphic, w=1 exact"
            << "\n";
  return 0;
}
