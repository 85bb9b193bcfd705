// One cold Berkeley mapping session, shared by ktree-epoch and banded-map.
#pragma once

#include "mapper/berkeley_mapper.hpp"
#include "simnet/network.hpp"
#include "topology/topology.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Session {
  sanmap::mapper::MapResult result;
  sanmap::simnet::NetworkCounters network;
};

/// Maps `fabric` from `master` on a fresh network, as the paper's mapper
/// does after a reboot.
Session map_session(const sanmap::topo::Topology& fabric,
                    sanmap::topo::NodeId master, int search_depth);

/// The session's deterministic figures, for comparing sessions exactly.
bool same_counts(const Session& a, const Session& b);

/// Adds the session's simnet, probe and mapper counts to `counts`.
void count_session(LayerCounts& counts, const Session& session);

}  // namespace perfbench
