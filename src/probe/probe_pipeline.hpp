// Pipelined probing: a bounded outstanding-probe window over the serial
// ProbeEngine (DESIGN.md §11).
//
// The paper's §5 observation is that mapping time is dominated by
// unanswered probes, each of which burns a full probe_timeout — serially.
// A real mapper host, however, can keep several probes in flight at once:
// it fires a probe, and instead of blocking on the response (or the
// timeout) it fires the next one, harvesting completions as they arrive.
// ProbePipeline models exactly that on the existing virtual clock with an
// event-queue completion model:
//
//  * every probe is *executed* serially through the wrapped ProbeEngine,
//    so counters, responses, the transcript, retry semantics and every
//    jitter/stall RNG draw are bit-identical to the serial engine;
//  * every probe's serial cost is then *re-timed*: a probe occupies one of
//    `window` slots from its start to its completion, a new probe starts
//    as soon as a slot frees (the earliest outstanding completion), and a
//    batch of probes therefore costs the max-style makespan of its
//    members instead of their sum — timeouts overlap;
//  * a probe whose issue *depends on a response* (the host-probe leg sent
//    only after its switch-probe leg missed, per ProbeOrder) is chained:
//    it cannot start before the response it depends on has completed.
//    Everything else is issued speculatively.
//
// drain() completes all outstanding probes and substitutes the makespan
// for the serial sum on the engine's clock; callers must drain before
// reading ProbeEngine::elapsed() or acting on the batch's responses at a
// decision point that gates further *non-probe* work. With window == 1
// the makespan degenerates to the serial sum exactly — same integer
// nanosecond arithmetic, same order — so a window-1 pipeline reproduces
// serial-engine times bit-for-bit.
//
// Injection instants: while a batch is open the engine's clock runs ahead
// on the serial sum, so probes reach the Network at their *serial*
// instants. On a quiescent network instants are irrelevant; with a
// time-dependent TrafficSchedule or FaultSchedule attached the pipeline
// is still well-defined but times probes as if issued serially — use the
// serial engine (window 1) when fault-instant fidelity matters.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "probe/probe_engine.hpp"

namespace sanmap::probe {

class ProbePipeline {
 public:
  struct Stats {
    /// Probe legs admitted to the window (one per switch/host/echo
    /// message group, i.e. per ProbeEngine primitive call).
    std::uint64_t legs = 0;
    /// Legs that were chained behind a response (serial decision points).
    std::uint64_t chained_legs = 0;
    /// Batches opened (first admit after idle / drain).
    std::uint64_t batches = 0;
    /// Most legs simultaneously outstanding.
    std::size_t peak_in_flight = 0;
  };

  /// `window` >= 1 is the bound on outstanding logical probes.
  ProbePipeline(ProbeEngine& engine, int window);

  /// The combined probe R, re-timed through the window. Replicates
  /// ProbeEngine::probe's short-circuit logic exactly (same primitive
  /// calls in the same order, hence identical counters and transcript);
  /// the second leg, when the order makes it response-dependent, is
  /// chained after the first leg's completion.
  Response probe(const simnet::Route& prefix);

  /// Single-leg primitives, admitted to the window independently.
  bool switch_probe(const simnet::Route& prefix);
  std::optional<std::string> host_probe(const simnet::Route& prefix);
  bool echo_probe(const simnet::Route& route);

  /// Completes every outstanding probe: the engine's clock is set to the
  /// batch's event-queue makespan (replacing the serial sum accumulated
  /// while the batch executed). Idempotent when nothing is outstanding.
  void drain();

  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] std::size_t in_flight() const { return outstanding_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] ProbeEngine& engine() { return *engine_; }

 private:
  /// Re-times one executed leg of serial cost `cost`. `before` is the
  /// engine clock when the leg was issued (used to anchor a new batch);
  /// `ready`, when set, is the earliest start (completion of the response
  /// this leg depends on). Returns the leg's completion instant.
  common::SimTime admit(common::SimTime before, common::SimTime cost,
                        std::optional<common::SimTime> ready);

  ProbeEngine* engine_;
  int window_;
  /// Earliest instant the next leg may start: the batch anchor, raised to
  /// each freed slot's completion (freed completions are popped in
  /// nondecreasing order, so this never moves backwards).
  common::SimTime floor_{};
  bool active_ = false;
  /// Completion instants (engine elapsed()-space) of outstanding legs.
  std::priority_queue<common::SimTime, std::vector<common::SimTime>,
                      std::greater<common::SimTime>>
      outstanding_;
  Stats stats_;
};

}  // namespace sanmap::probe
