// §6 future-work extensions, quantified: three mapping strategies side by
// side on the C / C+A / C+A+B systems.
//
//   Berkeley    — the paper's algorithm on stock hardware (the baseline);
//   Myricom     — the firmware mapper of §4 (stock hardware);
//   Identity    — self-identifying switches (§6's architectural support;
//                 identities are free, but port alignment still costs a
//                 comparison sweep per cross link, confirming the paper's
//                 caution that IDs alone do not trivialize the problem).
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "mapper/id_mapper.hpp"
#include "myricom/myricom_mapper.hpp"

int main() {
  using namespace sanmap;
  std::cout << "=== §6 extensions: three mapping strategies ===\n";
  common::Table table({"System", "strategy", "probes", "of which comp/align",
                       "time (ms)", "map"});
  for (const auto system :
       {topo::NowSystem::kC, topo::NowSystem::kCA, topo::NowSystem::kCAB}) {
    const topo::Topology network = topo::now_system(system);
    const topo::NodeId mapper_host = bench::mapper_host_of(network);

    simnet::HardwareExtensions ext;
    ext.self_identifying_switches = true;

    {  // Berkeley (baseline)
      const auto result = bench::run_berkeley(network);
      table.add_row({topo::to_string(system), "Berkeley",
                     std::to_string(result.probes.total()), "-",
                     common::fmt(result.elapsed.to_ms(), 0),
                     bench::verify(network, result)});
    }
    {  // Myricom
      simnet::Network net(network);
      const auto result =
          myricom::MyricomMapper(net, mapper_host).run();
      table.add_row(
          {topo::to_string(system), "Myricom (firmware)",
           std::to_string(result.probes.total()),
           std::to_string(result.probes.compare_probes) + " comp",
           common::fmt(result.elapsed.to_ms(), 0),
           topo::isomorphic(result.map, network) ? "ok" : "WRONG"});
    }
    {  // Identity
      simnet::Network net(network, simnet::CollisionModel::kCutThrough,
                          simnet::CostModel{}, simnet::FaultModel{}, 1, ext);
      probe::ProbeEngine engine(net, mapper_host);
      const auto result = mapper::IdMapper(engine).run();
      table.add_row(
          {topo::to_string(system), "Self-identifying switches",
           std::to_string(result.probes.total()),
           std::to_string(result.alignment_probes) + " align",
           common::fmt(result.elapsed.to_ms(), 0),
           topo::isomorphic(result.map, network) ? "ok" : "WRONG"});
    }
    table.add_rule();
  }
  std::cout << table
            << "\nNotes: Berkeley maps N - F (host-anchored "
               "merging); Myricom/Identity map all of N (identity needs no "
               "hosts). Identity still pays alignment probes per cross "
               "link — §6's point that self-identification alone does not "
               "completely solve the problem.\n";
  return 0;
}
