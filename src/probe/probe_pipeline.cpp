#include "probe/probe_pipeline.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sanmap::probe {

ProbePipeline::ProbePipeline(ProbeEngine& engine, int window)
    : engine_(&engine), window_(window) {
  SANMAP_CHECK_MSG(window_ >= 1, "pipeline window must be >= 1");
}

common::SimTime ProbePipeline::admit(common::SimTime before,
                                     common::SimTime cost,
                                     std::optional<common::SimTime> ready) {
  if (!active_) {
    active_ = true;
    floor_ = before;
    ++stats_.batches;
  }
  if (outstanding_.size() >= static_cast<std::size_t>(window_)) {
    // The window is full: wait for the earliest outstanding completion.
    floor_ = std::max(floor_, outstanding_.top());
    outstanding_.pop();
  }
  common::SimTime start = floor_;
  if (ready) {
    start = std::max(start, *ready);
    ++stats_.chained_legs;
  }
  const common::SimTime done = start + cost;
  outstanding_.push(done);
  ++stats_.legs;
  stats_.peak_in_flight = std::max(stats_.peak_in_flight,
                                   outstanding_.size());
  return done;
}

void ProbePipeline::drain() {
  if (!active_) {
    return;
  }
  common::SimTime end = floor_;
  while (!outstanding_.empty()) {
    end = std::max(end, outstanding_.top());
    outstanding_.pop();
  }
  engine_->set_elapsed(end);
  active_ = false;
}

bool ProbePipeline::switch_probe(const simnet::Route& prefix) {
  const common::SimTime before = engine_->elapsed();
  const bool hit = engine_->switch_probe(prefix);
  admit(before, engine_->elapsed() - before, std::nullopt);
  return hit;
}

std::optional<std::string> ProbePipeline::host_probe(
    const simnet::Route& prefix) {
  const common::SimTime before = engine_->elapsed();
  auto host = engine_->host_probe(prefix);
  admit(before, engine_->elapsed() - before, std::nullopt);
  return host;
}

bool ProbePipeline::echo_probe(const simnet::Route& route) {
  const common::SimTime before = engine_->elapsed();
  const bool hit = engine_->echo_probe(route);
  admit(before, engine_->elapsed() - before, std::nullopt);
  return hit;
}

Response ProbePipeline::probe(const simnet::Route& prefix) {
  // Mirrors ProbeEngine::probe leg for leg (same primitives, same order,
  // same short-circuits), so counters and transcript are identical; only
  // the timing model differs, and only the *dependent* second leg waits.
  switch (engine_->order()) {
    case ProbeOrder::kSwitchFirst: {
      common::SimTime before = engine_->elapsed();
      const bool sw = engine_->switch_probe(prefix);
      const common::SimTime first_done =
          admit(before, engine_->elapsed() - before, std::nullopt);
      if (sw) {
        return Response{ResponseKind::kSwitch, {}};
      }
      before = engine_->elapsed();
      auto host = engine_->host_probe(prefix);
      admit(before, engine_->elapsed() - before, first_done);
      if (host) {
        return Response{ResponseKind::kHost, std::move(*host)};
      }
      return Response{};
    }
    case ProbeOrder::kHostFirst: {
      common::SimTime before = engine_->elapsed();
      auto host = engine_->host_probe(prefix);
      const common::SimTime first_done =
          admit(before, engine_->elapsed() - before, std::nullopt);
      if (host) {
        return Response{ResponseKind::kHost, std::move(*host)};
      }
      before = engine_->elapsed();
      const bool sw = engine_->switch_probe(prefix);
      admit(before, engine_->elapsed() - before, first_done);
      if (sw) {
        return Response{ResponseKind::kSwitch, {}};
      }
      return Response{};
    }
    case ProbeOrder::kBoth: {
      // Both legs are always sent, so neither depends on the other's
      // response: they overlap freely.
      common::SimTime before = engine_->elapsed();
      const bool sw = engine_->switch_probe(prefix);
      admit(before, engine_->elapsed() - before, std::nullopt);
      before = engine_->elapsed();
      auto host = engine_->host_probe(prefix);
      admit(before, engine_->elapsed() - before, std::nullopt);
      if (host) {
        return Response{ResponseKind::kHost, std::move(*host)};
      }
      if (sw) {
        return Response{ResponseKind::kSwitch, {}};
      }
      return Response{};
    }
  }
  SANMAP_CHECK(false);
  return Response{};
}

}  // namespace sanmap::probe
