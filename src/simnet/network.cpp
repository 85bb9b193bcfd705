#include "simnet/network.hpp"

#include <cmath>
#include <span>

#include "common/check.hpp"
#include "simnet/fault_schedule.hpp"

namespace sanmap::simnet {

const char* to_string(DeliveryStatus status) {
  switch (status) {
    case DeliveryStatus::kDelivered:
      return "delivered";
    case DeliveryStatus::kIllegalTurn:
      return "illegal-turn";
    case DeliveryStatus::kNoSuchWire:
      return "no-such-wire";
    case DeliveryStatus::kHitHostTooSoon:
      return "hit-a-host-too-soon";
    case DeliveryStatus::kStrandedInNetwork:
      return "stranded-in-network";
    case DeliveryStatus::kSelfCollision:
      return "self-collision";
    case DeliveryStatus::kTrafficCollision:
      return "traffic-collision";
    case DeliveryStatus::kDropped:
      return "dropped";
    case DeliveryStatus::kCorrupted:
      return "corrupted";
  }
  return "?";
}

const char* to_string(CollisionModel model) {
  switch (model) {
    case CollisionModel::kCircuit:
      return "circuit";
    case CollisionModel::kCutThrough:
      return "cut-through";
    case CollisionModel::kPacket:
      return "packet";
  }
  return "?";
}

Network::Network(const topo::Topology& topo, CollisionModel collision,
                 CostModel cost, FaultModel faults, std::uint64_t fault_seed,
                 HardwareExtensions extensions)
    : topo_(&topo),
      collision_(collision),
      cost_(cost),
      faults_(faults),
      extensions_(extensions),
      rng_(fault_seed) {
  // Validate the fault knobs up front: a NaN or out-of-range probability
  // would otherwise silently bias every rng_.chance() draw for the lifetime
  // of the network.
  const auto valid = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  SANMAP_CHECK_MSG(valid(faults.traffic_intensity) &&
                       faults.traffic_intensity < 1.0,
                   "FaultModel::traffic_intensity must be finite and in "
                   "[0, 1); got "
                       << faults.traffic_intensity);
  SANMAP_CHECK_MSG(valid(faults.drop_probability),
                   "FaultModel::drop_probability must be finite and in "
                   "[0, 1]; got "
                       << faults.drop_probability);
  SANMAP_CHECK_MSG(valid(faults.corrupt_probability),
                   "FaultModel::corrupt_probability must be finite and in "
                   "[0, 1]; got "
                       << faults.corrupt_probability);
}

namespace {

/// Key for a directed channel: wire id plus direction bit.
std::uint64_t channel_key(topo::WireId wire, bool a_to_b) {
  return (static_cast<std::uint64_t>(wire) << 1) |
         static_cast<std::uint64_t>(a_to_b);
}

std::size_t hop_index(topo::NodeId node, topo::Port port) {
  return static_cast<std::size_t>(node) * topo::kSwitchPorts +
         static_cast<std::size_t>(port);
}

}  // namespace

void Network::rebuild_hop_table() {
  const topo::Topology& t = *topo_;
  hop_table_.assign(t.node_capacity() * topo::kSwitchPorts, PortHop{});
  for (topo::NodeId n = 0; n < t.node_capacity(); ++n) {
    if (!t.node_alive(n)) {
      continue;
    }
    const std::span<const topo::WireId> ports = t.port_wires(n);
    for (topo::Port p = 0; static_cast<std::size_t>(p) < ports.size(); ++p) {
      const topo::WireId w = ports[static_cast<std::size_t>(p)];
      if (w == topo::kInvalidWire) {
        continue;
      }
      const topo::Wire& wire = t.wire(w);
      const topo::PortRef here{n, p};
      const topo::PortRef far = wire.opposite(here);
      hop_table_[hop_index(n, p)] = {
          far.node,
          w,
          static_cast<std::uint8_t>(far.port),
          static_cast<std::uint8_t>(t.port_count(far.node)),
          t.is_host(far.node),
          here == wire.a};
    }
  }
  const auto channels = 2 * t.wire_capacity();
  if (crossing_.size() < channels) {
    crossing_.resize(channels);
  }
  hop_table_version_ = t.version();
}

DeliveryResult Network::send(topo::NodeId src_host, const Route& route,
                             std::vector<topo::NodeId>* visited,
                             common::SimTime at) {
  SANMAP_CHECK_MSG(topo_->node_alive(src_host) && topo_->is_host(src_host),
                   "send() requires a live source host");
  SANMAP_CHECK_MSG(turns_in_range(route),
                   "route contains a turn outside [-7, +7]");

  ++counters_.messages;
  if (hook_ != nullptr) {
    hook_->on_message_begin(src_host, route, at);
  }
  topo::NodeId bounce_switch = topo::kInvalidNode;
  const auto finish = [&](DeliveryStatus status, topo::NodeId where,
                          int hops,
                          common::SimTime latency) -> DeliveryResult {
    ++counters_.by_status[static_cast<std::size_t>(status)];
    counters_.wire_traversals += static_cast<std::uint64_t>(hops);
    const DeliveryResult result{status, where, hops, latency, bounce_switch};
    if (hook_ != nullptr) {
      hook_->on_message_end(result, counters_);
    }
    return result;
  };
  if (visited) {
    visited->clear();
    visited->push_back(src_host);
  }

  // A scheduled-dead source host cannot inject anything: its NIC is off and
  // the message never enters the network.
  if (fault_schedule_ != nullptr &&
      !fault_schedule_->node_up_at(src_host, at)) {
    return finish(DeliveryStatus::kDropped, topo::kInvalidNode, 0, {});
  }

  // End-to-end fault injection: decided up front so counters and rng
  // consumption stay deterministic regardless of path shape.
  const bool inject_drop = faults_.drop_probability > 0.0 &&
                           rng_.chance(faults_.drop_probability);
  const bool inject_corrupt = faults_.corrupt_probability > 0.0 &&
                              rng_.chance(faults_.corrupt_probability);

  const int message_flits =
      cost_.message_flits(static_cast<int>(route.size()));
  const common::SimTime flit = cost_.flit_time();
  const common::SimTime per_hop = cost_.switch_latency + flit;

  // The walk reads only the hop table; a topology mutated since the last
  // send gets it rebuilt first.
  if (hop_table_version_ != topo_->version()) {
    rebuild_hop_table();
  }

  // Worm state. For each directed channel: the hop index at which the head
  // last crossed it (cut-through) / whether it is held (circuit). The table
  // is a flat array indexed by channel_key, epoch-stamped per message so
  // reuse costs one counter bump rather than a clear of the whole table.
  const std::uint64_t epoch = ++crossing_epoch_;
  common::SimTime stall{};  // extra time spent waiting on our own tail

  // Position: the message is about to leave `node` through the wire at
  // `out_port`.
  topo::NodeId node = src_host;
  topo::Port out_port = 0;
  int hop = 0;
  std::size_t next_turn = 0;

  for (;;) {
    // -- traverse the wire at (node, out_port) -----------------------------
    const PortHop& link = hop_table_[hop_index(node, out_port)];
    const topo::WireId wire_id = link.wire;
    if (wire_id == topo::kInvalidWire) {
      return finish(DeliveryStatus::kNoSuchWire, node, hop,
                    per_hop * hop + stall);
    }
    // Timed fault injection: a wire that the schedule has taken down (or
    // whose endpoint died) is indistinguishable from one that was never
    // installed — the head selects the port and finds nothing behind it.
    if (fault_schedule_ != nullptr &&
        !fault_schedule_->wire_up_at(*topo_, wire_id,
                                     at + per_hop * hop + stall)) {
      return finish(DeliveryStatus::kNoSuchWire, node, hop,
                    per_hop * hop + stall);
    }
    const topo::PortRef here{node, out_port};
    const topo::PortRef far{link.far_node, link.far_port};
    const bool a_to_b = link.a_to_b;

    // Foreign traffic on this channel?
    if (faults_.traffic_intensity > 0.0 &&
        rng_.chance(faults_.traffic_intensity)) {
      // The worm blocks behind a foreign worm; the switch eventually forces
      // a forward reset and the message is destroyed.
      return finish(DeliveryStatus::kTrafficCollision, node, hop,
                    per_hop * hop + stall + cost_.blocked_port_timeout);
    }
    if (traffic_ != nullptr) {
      // Scheduled background worms: wait behind them; the forward reset
      // destroys us only if the wait exceeds the blocked-port timeout.
      const common::SimTime arrival = at + per_hop * hop + stall;
      const common::SimTime free =
          traffic_->free_at(wire_id, a_to_b, arrival);
      const common::SimTime wait = free - arrival;
      if (wait > cost_.blocked_port_timeout) {
        return finish(DeliveryStatus::kTrafficCollision, node, hop,
                      per_hop * hop + stall + cost_.blocked_port_timeout);
      }
      stall += wait;
    }

    // Self-collision per the active model.
    const auto key = static_cast<std::size_t>(channel_key(wire_id, a_to_b));
    ChannelCrossing& cell = crossing_[key];
    if (cell.epoch == epoch && collision_ != CollisionModel::kPacket) {
      if (collision_ == CollisionModel::kCircuit) {
        // The circuit holds every channel of the whole path at once; a
        // second use can never be granted.
        return finish(DeliveryStatus::kSelfCollision, node, hop,
                      per_hop * hop + stall + cost_.deadlock_break);
      }
      const int gap = hop - cell.hop;
      const auto natural_drain = per_hop * gap;
      const auto worm_length = flit * message_flits;
      if (natural_drain < worm_length) {
        // The tail has not drained past this channel yet. The worm can
        // still compress into the per-port buffering accumulated over the
        // gap; if it does not fit, it deadlocks on itself.
        const long buffer_capacity =
            static_cast<long>(gap) * cost_.port_buffer_flits;
        if (message_flits > buffer_capacity) {
          return finish(DeliveryStatus::kSelfCollision, node, hop,
                        per_hop * hop + stall + cost_.deadlock_break);
        }
        stall += worm_length - natural_drain;
      }
    }
    cell.epoch = epoch;
    cell.hop = hop;
    ++hop;
    if (hook_ != nullptr) {
      hook_->on_hop(wire_id, here, far);
    }
    node = far.node;
    if (visited) {
      visited->push_back(node);
    }

    // -- the message is now entering `node` via far.port -------------------
    if (next_turn == route.size()) {
      // Routing flits exhausted: the message terminates here.
      const auto latency = per_hop * hop + flit * message_flits + stall;
      if (!link.far_is_host) {
        return finish(DeliveryStatus::kStrandedInNetwork, node, hop, latency);
      }
      if (inject_drop) {
        return finish(DeliveryStatus::kDropped, node, hop, latency);
      }
      if (inject_corrupt) {
        return finish(DeliveryStatus::kCorrupted, node, hop, latency);
      }
      return finish(DeliveryStatus::kDelivered, node, hop, latency);
    }
    if (link.far_is_host) {
      return finish(DeliveryStatus::kHitHostTooSoon, node, hop,
                    per_hop * hop + stall);
    }
    const Turn turn = route[next_turn++];
    if (turn == 0 && bounce_switch == topo::kInvalidNode) {
      bounce_switch = node;
    }
    out_port = far.port + turn;
    if (out_port < 0 || out_port >= link.far_port_count) {
      return finish(DeliveryStatus::kIllegalTurn, node, hop,
                    per_hop * hop + stall);
    }
  }
}

}  // namespace sanmap::simnet
