// A self-healing mapping session for networks that fail *while being
// mapped* (§5's fault tolerance discussion, taken further than the paper's
// periodic-remap answer).
//
// BerkeleyMapper is correct for any failure set F that is stable during
// the run (Theorem 1: the map is isomorphic to N - F). When links die
// mid-run, flap, or ambient cross-traffic destroys probes, one pass can
// return a map that is stale (contains a wire that has since died) or
// incomplete (a probe loss made a live wire look absent). RobustMapper
// wraps the one-shot algorithm in an adaptive session that converges to
// the map of the *surviving* network:
//
//  * up to 5 mapping passes with escalating probe retries and exponential
//    backoff between passes (2 ms, doubling), all under one budget of
//    50,000 probes;
//  * stability sweeps over the candidate map (the verification probes of
//    incremental.hpp, one per port). A *surprising negative* — a recorded
//    wire that fails its probe — is never trusted alone: it is re-probed
//    twice more, because cross-traffic destroys probes
//    but never forges answers. An all-fail burst confirms the wire dead;
//    a mixed burst means ambient loss (the wire stays, and three mixed
//    bursts in one round raise the engine's retry level);
//  * a confirmed-dead wire is excised on the spot; reach is recomputed
//    before the sweep continues so downstream wires are re-verified via
//    surviving routes instead of being falsely condemned in cascade.
//    Whatever the excision disconnects from the mapper is the cut-off
//    region F, reported by name;
//  * recorded-free ports are probed too, but a switch bouncing a probe
//    there is NOT an inconsistency: by Theorem 1 the map omits the
//    separated set F, and a dangling F-switch behind a free port answers
//    loopback probes while being legitimately unmappable. Free ports
//    instead carry a confirmed occupied/empty state across sweeps; only a
//    *change* of that state counts as a transition. A host answering on a
//    recorded-free port is different — every host belongs to the core, so
//    that is a genuine map error and triggers a fresh mapping pass;
//  * per-port suspicion scores count *confirmed state transitions*
//    (alive -> dead -> alive ...) across sweeps. A port that keeps
//    flipping is a flapping link: after `quarantine_threshold` transitions
//    it is quarantined — excised from the map and never probed again —
//    so an unstable link cannot keep the session from converging;
//  * once a sweep round finds nothing to fix, the session fires a final
//    sampled consistency sweep (IncrementalMapper over a quarter of the
//    ports, repair off) as an independent spot check.
//
// The result reports the degraded-mode facts a consumer needs: whether
// the session converged, the quarantined ports and the cut-off region.
#pragma once

#include <string>
#include <vector>

#include "mapper/incremental.hpp"
#include "mapper/map_result.hpp"
#include "probe/probe_engine.hpp"
#include "topology/topology.hpp"

namespace sanmap::mapper {

struct RobustConfig {
  MapperConfig base;

  /// Engine retry level for the first pass; escalated by one per
  /// additional pass (and on ambient-loss detection) up to a fixed cap.
  int initial_retries = 2;

  /// Confirmed alive<->dead transitions on one port before it is
  /// quarantined as flapping (>= 2). Below the threshold, a port that
  /// answers again after its wire was excised earns a fresh mapping pass
  /// instead — a confirm burst can lose every probe to traffic, and the
  /// remap is the falsely excised wire's second chance. The default of 3
  /// spends that second chance once before condemning the port.
  int quarantine_threshold = 3;
};

struct RobustResult {
  /// The map of the surviving network (Theorem 1's N - F with F taken at
  /// convergence time), already purged of cut-off and quarantined parts.
  topo::Topology map;

  /// A full stability sweep found nothing to fix (and the budget held).
  bool converged = false;
  /// The map does not cover the whole original network: the session hit
  /// its budget, cut off a region, or quarantined ports.
  bool partial = false;

  /// Quarantined flapping ports, as "prefix-route:turn" keys relative to
  /// the mapper (the prefix reaches the switch, the turn selects the
  /// port).
  std::vector<std::string> quarantined_ports;
  /// Names of nodes cut off from the mapper by confirmed-dead wires (the
  /// observable part of the failure region F).
  std::vector<std::string> cut_off;

  int passes = 0;
  int sweep_rounds = 0;
  std::uint64_t probes_used = 0;
  /// Final sampled consistency sweep: probes spent and contradictions
  /// found (0 checks when the budget ran out first).
  std::uint64_t consistency_checks = 0;
  std::uint64_t consistency_failures = 0;

  probe::ProbeCounters probes;
  /// Absolute network-clock instant the session finished at (the engine's
  /// clock base advances monotonically across passes, so a FaultSchedule
  /// sees one continuous timeline).
  common::SimTime elapsed{};

  /// Start instant of the stability sweep round whose clean outcome set
  /// `converged`. The map reflects no observation older than this: a fault
  /// landing in (stable_since, elapsed] after its port's last probe is
  /// fundamentally undetectable by the session ("blind window"), so
  /// external oracles must not hold the map to it. Meaningful only when
  /// `converged` is true.
  common::SimTime stable_since{};
};

class RobustMapper {
 public:
  RobustMapper(probe::ProbeEngine& engine, RobustConfig config);

  /// Runs the session. The engine's clock base is advanced, not reset:
  /// repeated runs (or a run after another mapper used the engine) keep
  /// network time moving forward.
  RobustResult run();

 private:
  enum class SweepOutcome { kClean, kExcised, kNeedsRemap, kBudget };

  [[nodiscard]] bool budget_exhausted() const;
  /// Confirmed state transition on a port: bump suspicion, quarantine at
  /// the threshold. Returns true when the port is now quarantined.
  bool register_transition(const std::string& key, RobustResult& result);
  /// Disconnects `w` in `work` and drops whatever that disconnected from
  /// the mapper, recording the dropped names as cut-off.
  void excise_wire(topo::Topology& work, topo::WireId w,
                   RobustResult& result);
  /// One stability sweep round over `work` (mutates it on excision).
  SweepOutcome sweep_round(topo::Topology& work, RobustResult& result);

  /// Last confirmed state of a recorded-free port: -1 never observed,
  /// 0 confirmed empty, 1 a device answered (a dangling F-switch, or a
  /// flapper in its up phase — the flip count tells them apart).
  [[nodiscard]] int free_state(const std::string& key) const;
  void set_free_state(const std::string& key, int state);

  probe::ProbeEngine* engine_;
  RobustConfig config_;
  std::string mapper_name_;

  /// Session state surviving across passes (keyed by port key, which is
  /// stable as long as the upstream route to the switch is).
  std::vector<std::string> quarantined_;
  std::vector<std::pair<std::string, int>> suspicion_;
  std::vector<std::pair<std::string, int>> free_states_;

  /// Mixed confirmation bursts seen in the most recent sweep round
  /// (ambient-loss signal driving retry escalation).
  int round_mixed_bursts_ = 0;

  std::uint64_t probes_accumulated_ = 0;
  common::SimTime now_{};
};

}  // namespace sanmap::mapper
