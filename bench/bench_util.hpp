// Shared helpers for the bench binaries (one binary per paper table/figure;
// see DESIGN.md §4 for the experiment index).
#pragma once

#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::bench {

/// Bench mains read their flags outside any try block. An exception that
/// escapes one (a mistyped flag, a malformed value) ends here: its reason
/// and exit 1, as the sanmap CLI does, instead of an abort (exit 134).
/// Including this header installs it: the constant exists only so that
/// std::set_terminate runs during static initialization.
[[maybe_unused]] inline const bool kExitOnEscapedException =
    (std::set_terminate([] {
       if (const std::exception_ptr escaped = std::current_exception()) {
         try {
           std::rethrow_exception(escaped);
         } catch (const std::exception& e) {
           std::cerr << e.what() << "\n";
         } catch (...) {
           std::cerr << "non-standard exception\n";
         }
         std::cout.flush();
         std::_Exit(1);
       }
       std::abort();
     }),
     true);

/// The mapper host used throughout the evaluation: the utility machine
/// attached to a root of subcluster C ("a machine dedicated to running
/// system services (e.g., nameservers or the active mapper process)").
inline topo::NodeId mapper_host_of(const topo::Topology& topo) {
  if (const auto util = topo.find_host("C.util")) {
    return *util;
  }
  return topo.hosts().front();
}

/// Runs the Berkeley mapper with the ground-truth search depth.
inline mapper::MapResult run_berkeley(
    const topo::Topology& network,
    simnet::CollisionModel collision = simnet::CollisionModel::kCutThrough,
    mapper::MapperConfig config = {}, probe::ProbeOptions probe_options = {},
    simnet::FaultModel faults = {}, std::uint64_t fault_seed = 1) {
  const topo::NodeId mapper_host = mapper_host_of(network);
  simnet::Network net(network, collision, simnet::CostModel{}, faults,
                      fault_seed);
  probe::ProbeEngine engine(net, mapper_host, std::move(probe_options));
  config.search_depth = topo::search_depth(network, mapper_host);
  return mapper::BerkeleyMapper(engine, config).run();
}

/// "ok" / "WRONG" against the Theorem 1 oracle.
inline std::string verify(const topo::Topology& network,
                          const mapper::MapResult& result) {
  return topo::isomorphic(result.map, topo::core(network)) ? "ok" : "WRONG";
}

/// Machine-readable results next to the human tables: each bench collects
/// (name, metric, value) samples and writes them to BENCH_<bench>.json so CI
/// and trend tooling can diff runs without scraping stdout.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& name, const std::string& metric, double value) {
    entries_.push_back({name, metric, value});
  }

  std::string path() const { return "BENCH_" + bench_ + ".json"; }

  /// Renders the collected entries as a JSON document.
  std::string str() const {
    std::ostringstream out;
    out << "{\n  \"bench\": \"" << escape(bench_) << "\",\n  \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n    {\"name\": \""
          << escape(entries_[i].name) << "\", \"metric\": \""
          << escape(entries_[i].metric) << "\", \"value\": "
          << number(entries_[i].value) << "}";
    }
    out << "\n  ]\n}\n";
    return out.str();
  }

  /// Writes the document to BENCH_<bench>.json in the working directory.
  void write() const {
    std::ofstream out(path());
    if (!out) {
      std::cerr << "cannot write " << path() << "\n";
      return;
    }
    out << str();
    std::cerr << "wrote " << path() << " (" << entries_.size()
              << " entries)\n";
  }

 private:
  struct Entry {
    std::string name;
    std::string metric;
    double value;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  // JSON has no NaN/Inf literals; integral values print without a spurious
  // fraction so diffs stay stable.
  static std::string number(double v) {
    if (v != v || v > 1e308 || v < -1e308) {
      return "null";
    }
    std::ostringstream out;
    if (v == static_cast<double>(static_cast<long long>(v))) {
      out << static_cast<long long>(v);
    } else {
      out.precision(6);
      out << v;
    }
    return out.str();
  }

  std::string bench_;
  std::vector<Entry> entries_;
};

}  // namespace sanmap::bench
