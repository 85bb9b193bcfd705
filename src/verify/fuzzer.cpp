#include "verify/fuzzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topology/generators.hpp"

namespace sanmap::verify {

std::uint64_t case_seed(std::uint64_t seed, int trial) {
  std::uint64_t state =
      seed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(trial) + 1));
  return common::splitmix64(state);
}

namespace {

using topo::NodeId;
using topo::Topology;

ScenarioCase make_case(std::string name, Topology network,
                       simnet::CollisionModel collision =
                           simnet::CollisionModel::kCutThrough) {
  ScenarioCase c;
  c.name = std::move(name);
  c.network = std::move(network);
  c.collision = collision;
  // Pin the mapper host by name so mutation/minimization cannot shift it.
  c.mapper_host = c.network.name(c.network.hosts().front());
  return c;
}

/// Two switches joined by parallel cables, a loopback cable on one of them,
/// and hosts on both — the densest merge-cascade stress per wire, and the
/// case that exposes a mapper whose replicate merging is broken.
Topology parallel_cable_net() {
  Topology t;
  const NodeId s0 = t.add_switch("s0");
  const NodeId s1 = t.add_switch("s1");
  t.connect_any(s0, s1);
  t.connect_any(s0, s1);       // parallel trunk
  t.connect(s0, 6, s0, 7);     // loopback cable
  t.connect_any(t.add_host("h0"), s0);
  t.connect_any(t.add_host("h1"), s0);
  t.connect_any(t.add_host("h2"), s1);
  return t;
}

}  // namespace

std::vector<ScenarioCase> builtin_corpus() {
  std::vector<ScenarioCase> corpus;

  corpus.push_back(
      make_case("fig4-subcluster-c", topo::now_subcluster(topo::Subcluster::kC,
                                                          "C")));

  topo::FatTreeOptions ft;
  ft.levels = 2;
  ft.leaf_switches = 3;
  ft.switches_per_upper_level = 2;
  ft.hosts_per_leaf = 2;
  ft.uplinks = 2;
  corpus.push_back(make_case("fat-tree-2level", topo::fat_tree(ft)));

  {
    common::Rng rng(0x7a11);
    corpus.push_back(
        make_case("switch-tail", topo::with_switch_tail(4, 6, 2, rng)));
  }

  {
    ScenarioCase c = make_case("flapping-link", topo::star(3, 2));
    FaultEvent e;
    e.kind = FaultEvent::Kind::kFlap;
    e.wire = c.network.wires().front();
    e.period = common::SimTime::ms(1);
    e.duty = 0.5;
    corpus.push_back(std::move(c));
    corpus.back().faults.push_back(e);
  }

  corpus.push_back(make_case("circuit-star", topo::star(4, 3),
                             simnet::CollisionModel::kCircuit));

  corpus.push_back(make_case("hypercube-3", topo::hypercube(3, 1)));
  corpus.push_back(make_case("mesh-3x3", topo::mesh(3, 3, 1)));

  {
    common::Rng rng(0x1f2e3d);
    corpus.push_back(
        make_case("random-irregular", topo::random_irregular(6, 8, 3, rng)));
  }

  {
    common::Rng rng(0xb21d6e);
    ScenarioCase c =
        make_case("bridge-cut", topo::random_irregular(5, 6, 2, rng));
    FaultEvent down;
    down.kind = FaultEvent::Kind::kLinkDown;
    down.wire = c.network.wires().back();
    down.at = common::SimTime::ms(3);
    c.faults.push_back(down);
    FaultEvent up = down;
    up.kind = FaultEvent::Kind::kLinkUp;
    up.at = common::SimTime::ms(9);
    c.faults.push_back(up);
    corpus.push_back(std::move(c));
  }

  corpus.push_back(make_case("parallel-cables", parallel_cable_net()));

  // The regional-mapping workload: pods with real region boundaries joined
  // by a host-free spine layer. Exercises the regional-iso oracle on the
  // shape it was built for (and every other oracle on a spine whose
  // switches sit two hops from their nearest host anchor).
  {
    topo::MultiPodOptions mp;
    mp.pods = 3;
    mp.leaf_switches_per_pod = 2;
    mp.pod_roots = 2;
    mp.hosts_per_leaf = 2;
    mp.uplinks = 2;
    mp.spines = 2;
    corpus.push_back(make_case("multi-pod", topo::multi_pod(mp)));
  }

  return corpus;
}

OracleReport replay_case(const ScenarioCase& c, const OracleOptions& options) {
  return run_oracles(c, options);
}

namespace {

void count_skips(std::vector<std::pair<std::string, int>>& counts,
                 const OracleReport& report) {
  for (const std::string& s : report.skipped) {
    const std::string key = s.substr(0, s.find(':'));
    const auto it =
        std::find_if(counts.begin(), counts.end(),
                     [&](const auto& entry) { return entry.first == key; });
    if (it == counts.end()) {
      counts.emplace_back(key, 1);
    } else {
      ++it->second;
    }
  }
}

std::string write_artifact(const std::string& dir, const FuzzFailure& failure,
                           const FuzzOptions& options) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + failure.minimized.name + ".sancase";
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write artifact " + path);
  }
  out << "# repro: sanfuzz --seed " << options.seed << " (trial "
      << failure.trial << ", case-seed " << failure.case_seed << ")\n";
  out << "# mutations: "
      << (failure.mutation_trail.empty() ? "(none)" : failure.mutation_trail)
      << '\n';
  for (const Violation& v : failure.report.violations) {
    out << "# violation " << v.oracle << ": " << v.detail << '\n';
  }
  write_case(out, failure.minimized);
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
  return path;
}

}  // namespace

FuzzReport fuzz(const FuzzOptions& options) {
  const std::vector<ScenarioCase> corpus =
      options.corpus.empty() ? builtin_corpus() : options.corpus;
  if (corpus.empty()) {
    throw std::runtime_error("fuzz: empty corpus");
  }
  const auto progress = [&](const std::string& line) {
    if (options.progress) {
      options.progress(line);
    }
  };

  FuzzReport report;
  for (int trial = 0; trial < options.trials; ++trial) {
    const std::uint64_t cs = case_seed(options.seed, trial);
    common::Rng rng(cs);
    ScenarioCase c = corpus[rng.below(corpus.size())];
    const std::string base_name = c.name;
    const int mutations =
        1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                std::max(1, options.max_mutations))));
    const std::string trail = mutate_n(c, mutations, rng, options.mutation);
    c.name = base_name + "-t" + std::to_string(trial);

    const OracleReport oracle_report = run_oracles(c, options.oracle);
    ++report.trials;
    count_skips(report.skip_counts, oracle_report);
    if (oracle_report.ok()) {
      continue;
    }

    FuzzFailure failure;
    failure.trial = trial;
    failure.seed = options.seed;
    failure.case_seed = cs;
    failure.mutation_trail = trail;
    failure.original = c;
    failure.minimized = c;
    failure.report = oracle_report;
    progress("trial " + std::to_string(trial) + " [" + base_name + "]: " +
             oracle_report.violations.front().oracle + " — " +
             oracle_report.violations.front().detail);

    if (options.minimize_failures) {
      MinimizeOptions mo;
      mo.oracle = options.oracle;
      mo.max_checks = options.minimize_max_checks;
      if (const auto shrunk = minimize(c, mo)) {
        failure.minimized = shrunk->best;
        progress("  minimized " + std::to_string(c.network.num_nodes()) +
                 " -> " + std::to_string(shrunk->best.network.num_nodes()) +
                 " nodes in " + std::to_string(shrunk->checks) + " checks");
      }
    }
    if (!options.artifacts_dir.empty()) {
      failure.artifact_path =
          write_artifact(options.artifacts_dir, failure, options);
      progress("  repro written to " + failure.artifact_path);
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace sanmap::verify
