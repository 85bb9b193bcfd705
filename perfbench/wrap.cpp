// Link-time wrappers: spans at the boundaries between the layers.
//
// The benchmark links with `-Wl,--wrap=<symbol>` for every SYM_* below
// (CMakeLists.txt reads them from this file). The linker then sends every
// call to <symbol> made from another object file — from the benchmark, and
// from one layer into another, e.g. service::build_snapshot calling
// routing::compute_routes — to __wrap_<symbol>, which opens a span and calls
// the original through __real_<symbol>. Calls inside one translation unit
// are not redirected, so only boundary crossings are timed.
//
// A wrapper has the signature of the function it wraps; a member function
// takes its object as an explicit first parameter, which is how the x86-64
// Itanium C++ ABI passes `this` (after the return slot of a by-value
// result). The __real_ references are weak: when a symbol goes away or its
// signature changes, the build still links and unresolved_wraps() names the
// site whose spans the traced run no longer sees.
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/incremental.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/incremental.hpp"
#include "mapper/robust_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/engine.hpp"
#include "routing/route_health.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/churn.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/isomorphism.hpp"
#include "trace.hpp"

// clang-format off
#define SYM_TOPO_CORE "_ZN6sanmap4topo4coreERKNS0_8TopologyE"
#define SYM_TOPO_ISOMORPHIC "_ZN6sanmap4topo10isomorphicERKNS0_8TopologyES3_RKNS0_10IsoOptionsE"
#define SYM_NETWORK_SEND "_ZN6sanmap6simnet7Network4sendEjRKSt6vectorIiSaIiEEPS2_IjSaIjEENS_6common7SimTimeE"
#define SYM_PROBE "_ZN6sanmap5probe11ProbeEngine5probeERKSt6vectorIiSaIiEE"
#define SYM_SWITCH_PROBE "_ZN6sanmap5probe11ProbeEngine12switch_probeERKSt6vectorIiSaIiEE"
#define SYM_HOST_PROBE "_ZN6sanmap5probe11ProbeEngine10host_probeB5cxx11ERKSt6vectorIiSaIiEE"
#define SYM_ECHO_PROBE "_ZN6sanmap5probe11ProbeEngine10echo_probeERKSt6vectorIiSaIiEE"
#define SYM_BERKELEY_RUN "_ZN6sanmap6mapper14BerkeleyMapper3runEv"
#define SYM_ROBUST_RUN "_ZN6sanmap6mapper12RobustMapper3runEv"
#define SYM_INCREMENTAL_RUN "_ZN6sanmap6mapper17IncrementalMapper3runEv"
#define SYM_COMPUTE_ROUTES "_ZN6sanmap7routing14compute_routesERKNS_4topo8TopologyENS0_10EngineKindERKNS0_13UpDownOptionsEm"
#define SYM_ANALYZE_ROUTES "_ZN6sanmap7routing14analyze_routesERKNS_4topo8TopologyERKNS0_13RoutingResultE"
#define SYM_CHECK_ROUTES "_ZN6sanmap7routing12check_routesERNS_6simnet7NetworkERKNS0_13RoutingResultERKNS_4topo8TopologyENS_6common7SimTimeE"
#define SYM_DISTRIBUTE "_ZN6sanmap7routing17distribute_tablesERNS_6simnet7NetworkERKNS0_13RoutingResultERKNS_4topo8TopologyERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_6common7SimTimeE"
#define SYM_ANALYZE "_ZN6sanmap8analysis7analyzeERKNS_4topo8TopologyERKNS_7routing13RoutingResultERKNS0_15AnalyzerOptionsE"
#define SYM_REANALYZE "_ZN6sanmap8analysis13AnalysisState9reanalyzeERKNS_4topo8TopologyERKNS_7routing13RoutingResultE"
#define SYM_DELTA_CHECK "_ZN6sanmap8analysis12DeltaChecker5checkERKNS_4topo8TopologyERKNS_7routing13RoutingResultERKNS0_14AnalysisResultERKNS0_16CertificateDeltaEPSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaISM_EE"
#define SYM_BUILD_SNAPSHOT "_ZN6sanmap7service14build_snapshotERKNS_4topo8TopologyERKNS0_15SnapshotOptionsENS_6common7SimTimeE"
#define SYM_ENCODE "_ZN6sanmap7service15encode_snapshotB5cxx11ERKNS0_11MapSnapshotE"
#define SYM_DECODE "_ZN6sanmap7service15decode_snapshotERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_PUBLISH "_ZN6sanmap7service10MapCatalog7publishENS0_11MapSnapshotE"
#define SYM_PUBLISH_IF_CURRENT "_ZN6sanmap7service10MapCatalog18publish_if_currentENS0_11MapSnapshotEm"
#define SYM_BOOTSTRAP "_ZN6sanmap7service11RefreshLoop9bootstrapEv"
#define SYM_TICK "_ZN6sanmap7service11RefreshLoop4tickEv"
#define SYM_ROUTE "_ZNK6sanmap7service16RouteQueryEngine5routeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_"
#define SYM_RUN_BATCH "_ZNK6sanmap7service16RouteQueryEngine9run_batchERKSt6vectorINS0_10RouteQueryESaIS3_EERNS_6common10ThreadPoolEm"
#define SYM_CHURN_COMPILE "_ZNK6sanmap6simnet14ChurnGenerator7compileERKNS_4topo8TopologyERKSt6vectorIjSaIjEE"
// clang-format on

#define REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define WRAP(sym) __asm__("__wrap_" sym)

namespace perfbench::sites {
Site topology_core{"topology.core", Layer::kTopology, false};
Site topology_isomorphic{"topology.isomorphic", Layer::kTopology, false};
Site simnet_send{"simnet.Network::send", Layer::kSimnet, true};
Site probe_probe{"probe.ProbeEngine::probe", Layer::kProbe, true};
Site probe_switch{"probe.ProbeEngine::switch_probe", Layer::kProbe, true};
Site probe_host{"probe.ProbeEngine::host_probe", Layer::kProbe, true};
Site probe_echo{"probe.ProbeEngine::echo_probe", Layer::kProbe, true};
Site mapper_berkeley_run{"mapper.BerkeleyMapper::run", Layer::kMapper, false};
Site mapper_robust_run{"mapper.RobustMapper::run", Layer::kMapper, false};
Site mapper_incremental_run{"mapper.IncrementalMapper::run", Layer::kMapper,
                            false};
Site routing_compute{"routing.compute_routes", Layer::kRouting, false};
Site routing_analyze{"routing.analyze_routes", Layer::kRouting, false};
Site routing_check{"routing.check_routes", Layer::kRouting, false};
Site routing_distribute{"routing.distribute_tables", Layer::kRouting, false};
Site analysis_analyze{"analysis.analyze", Layer::kAnalysis, false};
Site analysis_reanalyze{"analysis.AnalysisState::reanalyze",
                        Layer::kAnalysis, false};
Site analysis_delta_check{"analysis.DeltaChecker::check", Layer::kAnalysis,
                          false};
Site service_build_snapshot{"service.build_snapshot", Layer::kService, false};
Site service_encode{"service.encode_snapshot", Layer::kService, false};
Site service_decode{"service.decode_snapshot", Layer::kService, false};
Site service_publish{"service.MapCatalog::publish", Layer::kService, false};
Site service_publish_if_current{"service.MapCatalog::publish_if_current",
                                Layer::kService, false};
Site service_bootstrap{"service.RefreshLoop::bootstrap", Layer::kService,
                       false};
Site service_tick{"service.RefreshLoop::tick", Layer::kService, false};
Site service_query{"service.RouteQueryEngine::route", Layer::kService, true};
Site service_query_batch{"service.RouteQueryEngine::run_batch",
                         Layer::kService, false};
Site simnet_churn_compile{"simnet.ChurnGenerator::compile", Layer::kSimnet,
                          false};
}  // namespace perfbench::sites

using namespace sanmap;
using perfbench::Span;
namespace sites = perfbench::sites;

// -- topology ----------------------------------------------------------------

topo::Topology real_core(const topo::Topology&) REAL(SYM_TOPO_CORE);
topo::Topology wrap_core(const topo::Topology&) WRAP(SYM_TOPO_CORE);
topo::Topology wrap_core(const topo::Topology& t) {
  const Span span(sites::topology_core);
  return real_core(t);
}

bool real_isomorphic(const topo::Topology&, const topo::Topology&,
                     const topo::IsoOptions&) REAL(SYM_TOPO_ISOMORPHIC);
bool wrap_isomorphic(const topo::Topology&, const topo::Topology&,
                     const topo::IsoOptions&) WRAP(SYM_TOPO_ISOMORPHIC);
bool wrap_isomorphic(const topo::Topology& a, const topo::Topology& b,
                     const topo::IsoOptions& options) {
  const Span span(sites::topology_isomorphic);
  return real_isomorphic(a, b, options);
}

// -- simnet ------------------------------------------------------------------

simnet::DeliveryResult real_send(simnet::Network*, topo::NodeId,
                                 const simnet::Route&,
                                 std::vector<topo::NodeId>*, common::SimTime)
    REAL(SYM_NETWORK_SEND);
simnet::DeliveryResult wrap_send(simnet::Network*, topo::NodeId,
                                 const simnet::Route&,
                                 std::vector<topo::NodeId>*, common::SimTime)
    WRAP(SYM_NETWORK_SEND);
simnet::DeliveryResult wrap_send(simnet::Network* net, topo::NodeId src,
                                 const simnet::Route& route,
                                 std::vector<topo::NodeId>* visited,
                                 common::SimTime at) {
  const Span span(sites::simnet_send);
  return real_send(net, src, route, visited, at);
}

// -- probe -------------------------------------------------------------------

probe::Response real_probe(probe::ProbeEngine*, const simnet::Route&)
    REAL(SYM_PROBE);
probe::Response wrap_probe(probe::ProbeEngine*, const simnet::Route&)
    WRAP(SYM_PROBE);
probe::Response wrap_probe(probe::ProbeEngine* engine,
                           const simnet::Route& prefix) {
  const Span span(sites::probe_probe);
  return real_probe(engine, prefix);
}

bool real_switch_probe(probe::ProbeEngine*, const simnet::Route&)
    REAL(SYM_SWITCH_PROBE);
bool wrap_switch_probe(probe::ProbeEngine*, const simnet::Route&)
    WRAP(SYM_SWITCH_PROBE);
bool wrap_switch_probe(probe::ProbeEngine* engine,
                       const simnet::Route& prefix) {
  const Span span(sites::probe_switch);
  return real_switch_probe(engine, prefix);
}

std::optional<std::string> real_host_probe(probe::ProbeEngine*,
                                           const simnet::Route&)
    REAL(SYM_HOST_PROBE);
std::optional<std::string> wrap_host_probe(probe::ProbeEngine*,
                                           const simnet::Route&)
    WRAP(SYM_HOST_PROBE);
std::optional<std::string> wrap_host_probe(probe::ProbeEngine* engine,
                                           const simnet::Route& prefix) {
  const Span span(sites::probe_host);
  return real_host_probe(engine, prefix);
}

bool real_echo_probe(probe::ProbeEngine*, const simnet::Route&)
    REAL(SYM_ECHO_PROBE);
bool wrap_echo_probe(probe::ProbeEngine*, const simnet::Route&)
    WRAP(SYM_ECHO_PROBE);
bool wrap_echo_probe(probe::ProbeEngine* engine, const simnet::Route& route) {
  const Span span(sites::probe_echo);
  return real_echo_probe(engine, route);
}

// -- mapper ------------------------------------------------------------------

mapper::MapResult real_berkeley_run(mapper::BerkeleyMapper*)
    REAL(SYM_BERKELEY_RUN);
mapper::MapResult wrap_berkeley_run(mapper::BerkeleyMapper*)
    WRAP(SYM_BERKELEY_RUN);
mapper::MapResult wrap_berkeley_run(mapper::BerkeleyMapper* self) {
  Span span(sites::mapper_berkeley_run);
  mapper::MapResult result = real_berkeley_run(self);
  span.set_virtual_ns(result.elapsed.to_ns());
  return result;
}

mapper::RobustResult real_robust_run(mapper::RobustMapper*)
    REAL(SYM_ROBUST_RUN);
mapper::RobustResult wrap_robust_run(mapper::RobustMapper*)
    WRAP(SYM_ROBUST_RUN);
mapper::RobustResult wrap_robust_run(mapper::RobustMapper* self) {
  Span span(sites::mapper_robust_run);
  mapper::RobustResult result = real_robust_run(self);
  span.set_virtual_ns(result.elapsed.to_ns());
  return result;
}

mapper::IncrementalResult real_incremental_run(mapper::IncrementalMapper*)
    REAL(SYM_INCREMENTAL_RUN);
mapper::IncrementalResult wrap_incremental_run(mapper::IncrementalMapper*)
    WRAP(SYM_INCREMENTAL_RUN);
mapper::IncrementalResult wrap_incremental_run(
    mapper::IncrementalMapper* self) {
  Span span(sites::mapper_incremental_run);
  mapper::IncrementalResult result = real_incremental_run(self);
  span.set_virtual_ns(result.elapsed.to_ns());
  return result;
}

// -- routing -----------------------------------------------------------------

routing::RoutingResult real_compute_routes(const topo::Topology&,
                                           routing::EngineKind,
                                           const routing::UpDownOptions&,
                                           std::uint64_t)
    REAL(SYM_COMPUTE_ROUTES);
routing::RoutingResult wrap_compute_routes(const topo::Topology&,
                                           routing::EngineKind,
                                           const routing::UpDownOptions&,
                                           std::uint64_t)
    WRAP(SYM_COMPUTE_ROUTES);
routing::RoutingResult wrap_compute_routes(
    const topo::Topology& t, routing::EngineKind kind,
    const routing::UpDownOptions& options, std::uint64_t seed) {
  const Span span(sites::routing_compute);
  return real_compute_routes(t, kind, options, seed);
}

routing::DeadlockAnalysis real_analyze_routes(const topo::Topology&,
                                              const routing::RoutingResult&)
    REAL(SYM_ANALYZE_ROUTES);
routing::DeadlockAnalysis wrap_analyze_routes(const topo::Topology&,
                                              const routing::RoutingResult&)
    WRAP(SYM_ANALYZE_ROUTES);
routing::DeadlockAnalysis wrap_analyze_routes(
    const topo::Topology& t, const routing::RoutingResult& routes) {
  const Span span(sites::routing_analyze);
  return real_analyze_routes(t, routes);
}

routing::RouteHealthReport real_check_routes(simnet::Network&,
                                             const routing::RoutingResult&,
                                             const topo::Topology&,
                                             common::SimTime)
    REAL(SYM_CHECK_ROUTES);
routing::RouteHealthReport wrap_check_routes(simnet::Network&,
                                             const routing::RoutingResult&,
                                             const topo::Topology&,
                                             common::SimTime)
    WRAP(SYM_CHECK_ROUTES);
routing::RouteHealthReport wrap_check_routes(
    simnet::Network& net, const routing::RoutingResult& routes,
    const topo::Topology& map, common::SimTime at) {
  Span span(sites::routing_check);
  routing::RouteHealthReport report = real_check_routes(net, routes, map, at);
  span.set_virtual_ns(report.elapsed.to_ns());
  return report;
}

routing::DistributionResult real_distribute(simnet::Network&,
                                            const routing::RoutingResult&,
                                            const topo::Topology&,
                                            const std::string&,
                                            common::SimTime)
    REAL(SYM_DISTRIBUTE);
routing::DistributionResult wrap_distribute(simnet::Network&,
                                            const routing::RoutingResult&,
                                            const topo::Topology&,
                                            const std::string&,
                                            common::SimTime)
    WRAP(SYM_DISTRIBUTE);
routing::DistributionResult wrap_distribute(
    simnet::Network& net, const routing::RoutingResult& routes,
    const topo::Topology& map, const std::string& master,
    common::SimTime at) {
  Span span(sites::routing_distribute);
  routing::DistributionResult result =
      real_distribute(net, routes, map, master, at);
  span.set_virtual_ns(result.elapsed.to_ns());
  return result;
}

// -- analysis ----------------------------------------------------------------

analysis::AnalysisResult real_analyze(const topo::Topology&,
                                      const routing::RoutingResult&,
                                      const analysis::AnalyzerOptions&)
    REAL(SYM_ANALYZE);
analysis::AnalysisResult wrap_analyze(const topo::Topology&,
                                      const routing::RoutingResult&,
                                      const analysis::AnalyzerOptions&)
    WRAP(SYM_ANALYZE);
analysis::AnalysisResult wrap_analyze(
    const topo::Topology& map, const routing::RoutingResult& routes,
    const analysis::AnalyzerOptions& options) {
  const Span span(sites::analysis_analyze);
  return real_analyze(map, routes, options);
}

analysis::AnalysisState::Result real_reanalyze(analysis::AnalysisState*,
                                               const topo::Topology&,
                                               const routing::RoutingResult&)
    REAL(SYM_REANALYZE);
analysis::AnalysisState::Result wrap_reanalyze(analysis::AnalysisState*,
                                               const topo::Topology&,
                                               const routing::RoutingResult&)
    WRAP(SYM_REANALYZE);
analysis::AnalysisState::Result wrap_reanalyze(
    analysis::AnalysisState* state, const topo::Topology& map,
    const routing::RoutingResult& routes) {
  const Span span(sites::analysis_reanalyze);
  return real_reanalyze(state, map, routes);
}

bool real_delta_check(analysis::DeltaChecker*, const topo::Topology&,
                      const routing::RoutingResult&,
                      const analysis::AnalysisResult&,
                      const analysis::CertificateDelta&,
                      std::vector<std::string>*) REAL(SYM_DELTA_CHECK);
bool wrap_delta_check(analysis::DeltaChecker*, const topo::Topology&,
                      const routing::RoutingResult&,
                      const analysis::AnalysisResult&,
                      const analysis::CertificateDelta&,
                      std::vector<std::string>*) WRAP(SYM_DELTA_CHECK);
bool wrap_delta_check(analysis::DeltaChecker* checker,
                      const topo::Topology& map,
                      const routing::RoutingResult& routes,
                      const analysis::AnalysisResult& verdict,
                      const analysis::CertificateDelta& delta,
                      std::vector<std::string>* problems) {
  const Span span(sites::analysis_delta_check);
  return real_delta_check(checker, map, routes, verdict, delta, problems);
}

// -- service -----------------------------------------------------------------

service::MapSnapshot real_build_snapshot(const topo::Topology&,
                                         const service::SnapshotOptions&,
                                         common::SimTime)
    REAL(SYM_BUILD_SNAPSHOT);
service::MapSnapshot wrap_build_snapshot(const topo::Topology&,
                                         const service::SnapshotOptions&,
                                         common::SimTime)
    WRAP(SYM_BUILD_SNAPSHOT);
service::MapSnapshot wrap_build_snapshot(
    const topo::Topology& map, const service::SnapshotOptions& options,
    common::SimTime created_at) {
  const Span span(sites::service_build_snapshot);
  return real_build_snapshot(map, options, created_at);
}

std::string real_encode(const service::MapSnapshot&) REAL(SYM_ENCODE);
std::string wrap_encode(const service::MapSnapshot&) WRAP(SYM_ENCODE);
std::string wrap_encode(const service::MapSnapshot& snapshot) {
  const Span span(sites::service_encode);
  return real_encode(snapshot);
}

service::MapSnapshot real_decode(const std::string&) REAL(SYM_DECODE);
service::MapSnapshot wrap_decode(const std::string&) WRAP(SYM_DECODE);
service::MapSnapshot wrap_decode(const std::string& bytes) {
  const Span span(sites::service_decode);
  return real_decode(bytes);
}

using PublishResult = service::MapCatalog::PublishResult;

PublishResult real_publish(service::MapCatalog*, service::MapSnapshot)
    REAL(SYM_PUBLISH);
PublishResult wrap_publish(service::MapCatalog*, service::MapSnapshot)
    WRAP(SYM_PUBLISH);
PublishResult wrap_publish(service::MapCatalog* catalog,
                           service::MapSnapshot snapshot) {
  const Span span(sites::service_publish);
  return real_publish(catalog, std::move(snapshot));
}

PublishResult real_publish_if_current(service::MapCatalog*,
                                      service::MapSnapshot, std::uint64_t)
    REAL(SYM_PUBLISH_IF_CURRENT);
PublishResult wrap_publish_if_current(service::MapCatalog*,
                                      service::MapSnapshot, std::uint64_t)
    WRAP(SYM_PUBLISH_IF_CURRENT);
PublishResult wrap_publish_if_current(service::MapCatalog* catalog,
                                      service::MapSnapshot snapshot,
                                      std::uint64_t based_on_epoch) {
  const Span span(sites::service_publish_if_current);
  return real_publish_if_current(catalog, std::move(snapshot), based_on_epoch);
}

service::TickReport real_bootstrap(service::RefreshLoop*) REAL(SYM_BOOTSTRAP);
service::TickReport wrap_bootstrap(service::RefreshLoop*) WRAP(SYM_BOOTSTRAP);
service::TickReport wrap_bootstrap(service::RefreshLoop* loop) {
  Span span(sites::service_bootstrap);
  service::TickReport report = real_bootstrap(loop);
  span.set_virtual_ns(report.at.to_ns());
  return report;
}

service::TickReport real_tick(service::RefreshLoop*) REAL(SYM_TICK);
service::TickReport wrap_tick(service::RefreshLoop*) WRAP(SYM_TICK);
service::TickReport wrap_tick(service::RefreshLoop* loop) {
  Span span(sites::service_tick);
  service::TickReport report = real_tick(loop);
  span.set_virtual_ns(report.at.to_ns());
  return report;
}

service::RouteAnswer real_route(const service::RouteQueryEngine*,
                                const std::string&, const std::string&)
    REAL(SYM_ROUTE);
service::RouteAnswer wrap_route(const service::RouteQueryEngine*,
                                const std::string&, const std::string&)
    WRAP(SYM_ROUTE);
service::RouteAnswer wrap_route(const service::RouteQueryEngine* engine,
                                const std::string& src,
                                const std::string& dst) {
  const Span span(sites::service_query);
  return real_route(engine, src, dst);
}

std::vector<service::RouteAnswer> real_run_batch(
    const service::RouteQueryEngine*, const std::vector<service::RouteQuery>&,
    common::ThreadPool&, std::size_t) REAL(SYM_RUN_BATCH);
std::vector<service::RouteAnswer> wrap_run_batch(
    const service::RouteQueryEngine*, const std::vector<service::RouteQuery>&,
    common::ThreadPool&, std::size_t) WRAP(SYM_RUN_BATCH);
std::vector<service::RouteAnswer> wrap_run_batch(
    const service::RouteQueryEngine* engine,
    const std::vector<service::RouteQuery>& queries, common::ThreadPool& pool,
    std::size_t chunk_size) {
  const Span span(sites::service_query_batch);
  return real_run_batch(engine, queries, pool, chunk_size);
}

simnet::FaultSchedule real_churn_compile(const simnet::ChurnGenerator*,
                                         const topo::Topology&,
                                         const std::vector<topo::NodeId>&)
    REAL(SYM_CHURN_COMPILE);
simnet::FaultSchedule wrap_churn_compile(const simnet::ChurnGenerator*,
                                         const topo::Topology&,
                                         const std::vector<topo::NodeId>&)
    WRAP(SYM_CHURN_COMPILE);
simnet::FaultSchedule wrap_churn_compile(
    const simnet::ChurnGenerator* generator, const topo::Topology& t,
    const std::vector<topo::NodeId>& immune) {
  const Span span(sites::simnet_churn_compile);
  return real_churn_compile(generator, t, immune);
}

namespace perfbench {

std::vector<std::string> unresolved_wraps() {
  std::vector<std::string> missing;
  const auto need = [&](const void* real, const Site& site) {
    if (real == nullptr) {
      missing.emplace_back(site.name);
    }
  };
  need(reinterpret_cast<const void*>(&real_core), sites::topology_core);
  need(reinterpret_cast<const void*>(&real_isomorphic),
       sites::topology_isomorphic);
  need(reinterpret_cast<const void*>(&real_send), sites::simnet_send);
  need(reinterpret_cast<const void*>(&real_probe), sites::probe_probe);
  need(reinterpret_cast<const void*>(&real_switch_probe), sites::probe_switch);
  need(reinterpret_cast<const void*>(&real_host_probe), sites::probe_host);
  need(reinterpret_cast<const void*>(&real_echo_probe), sites::probe_echo);
  need(reinterpret_cast<const void*>(&real_berkeley_run),
       sites::mapper_berkeley_run);
  need(reinterpret_cast<const void*>(&real_robust_run),
       sites::mapper_robust_run);
  need(reinterpret_cast<const void*>(&real_incremental_run),
       sites::mapper_incremental_run);
  need(reinterpret_cast<const void*>(&real_compute_routes),
       sites::routing_compute);
  need(reinterpret_cast<const void*>(&real_analyze_routes),
       sites::routing_analyze);
  need(reinterpret_cast<const void*>(&real_check_routes),
       sites::routing_check);
  need(reinterpret_cast<const void*>(&real_distribute),
       sites::routing_distribute);
  need(reinterpret_cast<const void*>(&real_analyze), sites::analysis_analyze);
  need(reinterpret_cast<const void*>(&real_reanalyze),
       sites::analysis_reanalyze);
  need(reinterpret_cast<const void*>(&real_delta_check),
       sites::analysis_delta_check);
  need(reinterpret_cast<const void*>(&real_build_snapshot),
       sites::service_build_snapshot);
  need(reinterpret_cast<const void*>(&real_encode), sites::service_encode);
  need(reinterpret_cast<const void*>(&real_decode), sites::service_decode);
  need(reinterpret_cast<const void*>(&real_publish), sites::service_publish);
  need(reinterpret_cast<const void*>(&real_publish_if_current),
       sites::service_publish_if_current);
  need(reinterpret_cast<const void*>(&real_bootstrap),
       sites::service_bootstrap);
  need(reinterpret_cast<const void*>(&real_tick), sites::service_tick);
  need(reinterpret_cast<const void*>(&real_route), sites::service_query);
  need(reinterpret_cast<const void*>(&real_run_batch),
       sites::service_query_batch);
  need(reinterpret_cast<const void*>(&real_churn_compile),
       sites::simnet_churn_compile);
  return missing;
}

}  // namespace perfbench
