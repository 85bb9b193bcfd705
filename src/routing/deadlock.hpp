// Channel-dependency-graph deadlock analysis (Dally & Seitz, ref [8]).
//
// Channels are the directed halves of every wire. Each route contributes a
// dependency from every channel it holds to the next one it requests; a
// set of routes is mutually deadlock-free iff the resulting dependency
// graph is acyclic. This is the formal check behind §5.5's claim that the
// distributed UP*/DOWN* routes are mutually deadlock-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// A directed channel: one direction of one wire.
struct Channel {
  topo::WireId wire = topo::kInvalidWire;
  bool a_to_b = true;

  friend constexpr auto operator<=>(const Channel&, const Channel&) = default;
};

/// Dense channel id: wire * 2 + a_to_b (a_to_b adds 1).
constexpr std::size_t channel_id(const Channel& c) {
  return static_cast<std::size_t>(c.wire) * 2 + (c.a_to_b ? 1 : 0);
}

/// A channel id as ChannelPaths stores it.
using ChannelId = std::uint32_t;

/// Wire ids below this bound have channel ids that fit a ChannelId.
inline constexpr std::size_t kMaxChannelWires = std::size_t{1} << 31;

constexpr Channel channel_from_id(std::size_t id) {
  return Channel{static_cast<topo::WireId>(id / 2), (id % 2) != 0};
}

/// The channel sequences of a route set in one flat form: path r holds
/// ids[offsets[r]] .. ids[offsets[r + 1] - 1].
struct ChannelPaths {
  std::vector<std::size_t> offsets{0};
  std::vector<ChannelId> ids;

  [[nodiscard]] std::size_t size() const { return offsets.size() - 1; }
  [[nodiscard]] std::span<const ChannelId> operator[](std::size_t r) const {
    return std::span<const ChannelId>(ids).subspan(
        offsets[r], offsets[r + 1] - offsets[r]);
  }

  /// Appends one path: how tests build hand-made path sets.
  void add(const std::vector<Channel>& path);
};

struct DeadlockAnalysis {
  bool deadlock_free = false;
  std::size_t channels = 0;
  std::size_t dependencies = 0;
  /// When a cycle exists: one witness cycle of channels.
  std::vector<Channel> cycle;
};

/// The channel sequence each route holds, in order and in the table's key
/// order — the exact dependency inputs analyze_routes works from. Exposed so
/// the certificate builder and an independent cycle detector (src/verify's
/// differential deadlock oracle) run on the same inputs rather than on
/// their own re-derivation of them.
ChannelPaths route_channel_paths(const topo::Topology& topo,
                                 const RoutingResult& routes);

/// Analyzes a route set over its topology.
DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes);

/// Analyzes explicit channel sequences (for adversarial tests: hand-built
/// route sets that DO deadlock).
DeadlockAnalysis analyze_channel_paths(const topo::Topology& topo,
                                       const ChannelPaths& paths);

/// True when every route obeys the UP*/DOWN* rule: no down-to-up turn.
bool updown_compliant(const RoutingResult& routes);

}  // namespace sanmap::routing
