// The benchmark's own checks on its inputs: the k-ary n-tree builder and the
// churn schedule. Exits 0 when every check passes; prints each failure.
//
//   perfbench_selftest
#include <iostream>
#include <string>
#include <vector>

#include "fabrics.hpp"
#include "common/sim_time.hpp"
#include "simnet/churn.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"

namespace {

using namespace sanmap;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

int power(int base, int exp) {
  int p = 1;
  for (int i = 0; i < exp; ++i) {
    p *= base;
  }
  return p;
}

void check_tree(int k, int n, std::uint64_t seed) {
  const std::string name = std::to_string(k) + "-ary " + std::to_string(n) +
                           "-tree, seed " + std::to_string(seed);
  const topo::Topology t = perfbench::k_ary_n_tree(k, n, seed);
  expect(t.num_switches() ==
             static_cast<std::size_t>(n * power(k, n - 1)),
         name + ": switch count");
  expect(t.num_hosts() == static_cast<std::size_t>(power(k, n)),
         name + ": host count");
  bool ports_ok = true;
  for (const topo::NodeId s : t.switches()) {
    ports_ok = ports_ok && t.port_count(s) <= 8 && t.degree(s) <= 2 * k;
  }
  expect(ports_ok, name + ": 8-port budget");
  expect(topo::connected(t), name + ": connected");
  expect(topo::diameter(t) == 2 * n, name + ": diameter 2n");
  expect(perfbench::k_ary_n_tree(k, n, seed).structurally_equal(t),
         name + ": same fabric for the same arguments");
}

void check_churn_schedule() {
  const simnet::ChurnSpec spec = simnet::parse_churn_spec(
      "rolling(start=2s,every=25s,down=6s,count=4);"
      "outage(at=60s,switches=2,down=8s);"
      "flapburst(at=100s,span=3s,period=150,duty=0.5,wires=2);"
      "hostchurn(start=14s,every=25s,down=6s,count=4)");
  const topo::Topology t = topo::now_cluster();
  const std::vector<topo::NodeId> immune = {*t.find_host("C.util")};
  // The schedule's fingerprint: every node's and wire's state on a 25 ms
  // grid over the scenario, plus its event count.
  const auto events = [&](std::uint64_t seed) {
    const simnet::FaultSchedule schedule =
        simnet::ChurnGenerator(spec, seed).compile(t, immune);
    std::string states = std::to_string(schedule.events()) + ":";
    const common::SimTime step = common::SimTime::ms(25);
    for (common::SimTime at{}; at < spec.horizon(t.num_switches());
         at += step) {
      for (const topo::NodeId n : t.nodes()) {
        states += schedule.node_up_at(n, at) ? '1' : '0';
      }
      for (const topo::WireId w : t.wires()) {
        states += schedule.wire_up_at(t, w, at) ? '1' : '0';
      }
    }
    return states;
  };
  expect(events(7) == events(7), "churn schedule: same seed, same schedule");
  expect(events(7) != events(8),
         "churn schedule: different seeds pick different targets");
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    check_tree(4, 4, seed);
  }
  check_tree(4, 2, 3);
  check_tree(4, 3, 3);
  check_tree(2, 5, 3);
  expect(!perfbench::k_ary_n_tree(4, 4, 1).structurally_equal(
             perfbench::k_ary_n_tree(4, 4, 2)),
         "port seeds relabel the ports");
  check_churn_schedule();
  std::cout << (g_failures == 0 ? "all checks passed" : "checks failed")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}
