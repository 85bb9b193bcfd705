// The write side of the map service: watch, remap, certify, swap, distribute.
//
// A long-lived mapper host does the paper's §5.5 pipeline forever. Each
// tick advances the virtual clock by the check interval and fires every
// route of the current snapshot into the live (possibly faulted) fabric via
// routing::check_routes. While the fabric is healthy a tick is pure
// observation. When routes broke, the loop escalates through three rungs:
//
//  1. incremental — localize the dirty region (a greedy hitting set of the
//     broken routes' path switches, expanded by one switch hop),
//     re-probe only that region with IncrementalMapper (the rest of the
//     previous epoch's map is trusted wholesale and spliced around it),
//     validate the candidate routes against the live fabric, and publish;
//  2. full remap — a mapper::RobustMapper session against the live network
//     when the incremental attempt failed, produced a map the router
//     refuses, failed live validation, or was refused at publish;
//  3. degraded — when even the full remap cannot produce a publishable
//     snapshot, keep serving the last safe snapshot with the dirty region
//     quarantined (MapCatalog health kDegraded) and try again next tick.
//
// Every candidate, whichever rung produced it, is offered to the catalog's
// one publish gate via publish_if_current (a from-scratch analysis with
// both certificates rechecked, plus the staleness checks), and only a
// snapshot the gate published is distributed in-band. So a concurrent
// publisher's fresher routes are never clobbered, an unsafe table is never
// served, and no interface is handed a table the catalog refused. The loop
// is the service's only self-healing path: check, remap, publish,
// redistribute.
//
// Every remap session maps at the live fabric's ground-truth search depth
// + 2 (the slack for fabrics that degrade mid-pass). An exponential backoff
// keeps a flapping link from turning into a remap storm: consecutive
// breakage ticks double the pause before the next remap attempt (100 ms,
// capped at 2 s). While backing off, the loop still downgrades catalog
// health so readers see the staleness.
//
// Threading: one RefreshLoop instance is the catalog's single writer; any
// number of RouteQueryEngine readers run concurrently against the catalog.
// That split — exclusive probing, lock-free reading — is the whole
// concurrency design of the service. The writer role is formalized by an
// internal mutex: ticks serialize (an accidental concurrent tick() queues
// instead of racing the clock and the storm damper), and clang's
// -Wthread-safety proves every access to the tick-side state happens on the
// locked writer path. The intended usage is still one thread — Network and
// ProbeEngine are shared with code outside the loop and are not themselves
// thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"
#include "mapper/robust_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/distribute.hpp"
#include "routing/route_health.hpp"
#include "service/map_catalog.hpp"
#include "simnet/network.hpp"

namespace sanmap::service {

struct RefreshConfig {
  /// The mapper/master host, by name (must exist in the live fabric).
  std::string master_name;
  /// Virtual time between health checks (must be positive).
  common::SimTime check_interval = common::SimTime::ms(50);
  /// Route parameters baked into every published snapshot. An empty
  /// root_name selects the natural root (the switch farthest from all
  /// hosts); a non-empty name that matches no switch of a freshly mapped
  /// fabric fails at snapshot build.
  std::string root_name;
  std::uint64_t route_seed = 1;
  /// Run the RouteOptimizer skew/funnel pass on every candidate table.
  bool optimize = false;
  /// Try a dirty-region incremental remap before falling back to a full
  /// RobustMapper session.
  bool incremental = true;
};

/// Outcome of a tick's publish attempt. Unlike MapCatalog::PublishStatus
/// this has an explicit idle state, so a tick that never tried to publish
/// cannot be mistaken for a rejected one.
enum class TickPublish : std::uint8_t {
  kNotAttempted,
  kPublished,
  kRejectedUnsafe,
  kRejectedStale,
};

const char* to_string(TickPublish status);

/// Which remap rung produced the tick's final candidate snapshot.
enum class RemapKind : std::uint8_t { kNone, kIncremental, kFull };

const char* to_string(RemapKind kind);

/// What one tick did.
struct TickReport {
  /// Catalog epochs around the tick; equal when nothing was published.
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;
  std::size_t routes_checked = 0;
  std::size_t broken = 0;
  /// A remap session (incremental or full) ran this tick.
  bool remapped = false;
  /// The rung whose snapshot the publish attempt used.
  RemapKind remap = RemapKind::kNone;
  /// The incremental rung was tried and fell through to the full remap.
  bool escalated = false;
  /// Dirty-region switches localized from the broken routes (seeds + one
  /// hop), 0 when the tick saw no breakage.
  std::size_t dirty_switches = 0;
  /// Breakage was seen but the remap was skipped by the backoff damper.
  bool backoff_active = false;
  /// Probes all remap sessions of this tick spent (0 when !remapped).
  std::uint64_t probes_used = 0;
  /// Outcome of the publish attempt; kNotAttempted on observation-only,
  /// damped, and degraded ticks.
  TickPublish publish_status = TickPublish::kNotAttempted;
  /// The snapshot this tick published was distributed and every table
  /// message arrived; false when nothing was published.
  bool distribution_complete = false;
  /// Catalog health after the tick.
  MapCatalog::HealthState health = MapCatalog::HealthState::kFresh;
  /// Virtual-clock instant the tick finished at.
  common::SimTime at{};

  [[nodiscard]] bool swapped() const { return epoch_after != epoch_before; }
};

class RefreshLoop {
 public:
  /// `net` must outlive the loop; `catalog` is where snapshots land. The
  /// master host is resolved by name against net's topology. Throws
  /// common::CheckFailure on an invalid config (empty master_name,
  /// non-positive check_interval, a master not in the fabric) — fail at
  /// construction, not on the first tick.
  RefreshLoop(simnet::Network& net, MapCatalog& catalog, RefreshConfig config);

  /// Maps the fabric from scratch and publishes the first snapshot (or a
  /// fresh one if the catalog already has epochs).
  TickReport bootstrap() SANMAP_EXCLUDES(mutex_);

  /// One watch cycle: advance the clock, health-check the current
  /// snapshot's routes, and localize + remap + publish + distribute when
  /// anything broke. Bootstraps if the catalog is empty.
  TickReport tick() SANMAP_EXCLUDES(mutex_);

  /// Runs `ticks` cycles; returns one report per tick.
  std::vector<TickReport> run(int ticks) SANMAP_EXCLUDES(mutex_);

  /// The loop's virtual clock (advances across ticks and remaps).
  [[nodiscard]] common::SimTime now() const SANMAP_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return now_;
  }

 private:
  /// The bodies of bootstrap()/tick(), on the locked writer path (tick
  /// bootstraps an empty catalog itself, so the lock is taken once at the
  /// public entry points).
  TickReport bootstrap_locked() SANMAP_REQUIRES(mutex_);
  TickReport tick_locked() SANMAP_REQUIRES(mutex_);

  /// Dirty-region localization: greedy hitting set over the broken routes'
  /// path switches, expanded by one BFS hop over the snapshot's map.
  /// Returns snapshot-map switch ids.
  [[nodiscard]] std::vector<topo::NodeId> localize_dirty(
      const MapSnapshot& snapshot,
      const std::vector<routing::BrokenRoute>& broken) const;

  /// The escalation chain for one breakage tick (also the bootstrap path,
  /// with previous == nullptr). Updates catalog health on failure.
  void remap_and_publish(std::uint64_t based_on_epoch,
                         const SnapshotPtr& previous,
                         const std::vector<topo::NodeId>& dirty,
                         TickReport& report) SANMAP_REQUIRES(mutex_);

  /// Full RobustMapper session against the live fabric.
  [[nodiscard]] topo::Topology full_remap(TickReport& report)
      SANMAP_REQUIRES(mutex_);

  /// Build, validate (incremental rung), publish, then distribute one
  /// candidate map. Returns true when it became current.
  bool try_publish(const topo::Topology& map, std::uint64_t based_on_epoch,
                   const char* source, TickReport& report)
      SANMAP_REQUIRES(mutex_);

  /// Downgrade catalog health, quarantining `dirty` (snapshot-map ids of
  /// `snapshot`'s map).
  void set_health(MapCatalog::HealthState state, const MapSnapshot* snapshot,
                  const std::vector<topo::NodeId>& dirty)
      SANMAP_REQUIRES(mutex_);

  // Immutable after construction.
  simnet::Network* net_;
  MapCatalog* catalog_;
  RefreshConfig config_;
  topo::NodeId master_;
  /// Remap session config: defaults, at the live fabric's depth + 2.
  mapper::RobustConfig robust_;

  /// The writer-role lock: everything a tick mutates lives under it.
  mutable common::Mutex mutex_;
  probe::ProbeEngine engine_ SANMAP_GUARDED_BY(mutex_);
  common::SimTime now_ SANMAP_GUARDED_BY(mutex_){};

  // Storm-damper state.
  int consecutive_remaps_ SANMAP_GUARDED_BY(mutex_) = 0;
  common::SimTime backoff_until_ SANMAP_GUARDED_BY(mutex_){};
};

}  // namespace sanmap::service
