// The BFS exploration engine shared by the Berkeley mapper and the
// incremental mapper's repair pass: a FIFO frontier of switch vertices,
// each explored by probing its feasible turns, with vertex merging
// interleaved (§3.3) and the probe-elimination heuristics applied.
//
// With MapperConfig::pipeline_window >= 2 the explorer runs in
// batched-frontier mode: a vertex's turn probes are issued speculatively
// into a probe::ProbePipeline window instead of one at a time, so their
// timeouts overlap; the response-dependent second leg of each combined
// probe (switch-vs-host disambiguation) still serializes behind its first
// leg, and the window is drained at the end of each vertex — the next
// frontier pop is a decision point that may depend on this vertex's
// responses. Probe counts and the constructed model are identical to the
// serial mode at every window.
#pragma once

#include <optional>
#include <vector>

#include "mapper/map_result.hpp"
#include "mapper/model_graph.hpp"
#include "probe/probe_engine.hpp"
#include "probe/probe_pipeline.hpp"

namespace sanmap::mapper {

class Explorer {
 public:
  Explorer(ModelGraph& model, probe::ProbeEngine& engine,
           const MapperConfig& config)
      : model_(&model), engine_(&engine), config_(&config) {
    if (config.pipeline_window >= 2) {
      pipeline_.emplace(engine, config.pipeline_window);
    }
  }

  /// Enqueues a switch vertex for exploration.
  void push(VertexId v) { frontier_.push_back(v); }

  /// Drains the frontier, exploring every live, unexplored switch vertex
  /// within the search depth. Accumulates counters and (optionally) the
  /// Figure 8 trace into `result`.
  void run(MapResult& result);

 private:
  [[nodiscard]] std::size_t pending() const {
    return frontier_.size() - head_;
  }
  void explore_vertex(VertexId v, MapResult& result);
  /// One combined probe, through the window when batched.
  probe::Response issue_probe(const simnet::Route& prefix);

  ModelGraph* model_;
  probe::ProbeEngine* engine_;
  const MapperConfig* config_;
  std::optional<probe::ProbePipeline> pipeline_;
  std::vector<VertexId> frontier_;
  std::size_t head_ = 0;
  /// Reused probe-route buffer: prefix + one turn, rebuilt in place per
  /// probe so the hot loop performs no per-probe route allocation.
  simnet::Route probe_route_;
};

}  // namespace sanmap::mapper
