#include "verify/conservation.hpp"

#include <numeric>
#include <sstream>

namespace sanmap::verify {

ConservationChecker::ConservationChecker(const topo::Topology& topo)
    : topo_(&topo) {}

void ConservationChecker::violate(const std::string& detail) {
  if (violations_.size() >= kMaxViolations) {
    ++suppressed_;
    return;
  }
  violations_.push_back(detail);
}

void ConservationChecker::on_message_begin(topo::NodeId src_host,
                                           const simnet::Route& route,
                                           common::SimTime at) {
  (void)route;
  (void)at;
  if (in_flight_) {
    violate("message began before the previous one ended");
  }
  if (src_host >= topo_->node_capacity() || !topo_->node_alive(src_host) ||
      !topo_->is_host(src_host)) {
    violate("message injected at a non-host or dead node id " +
            std::to_string(src_host));
  }
  in_flight_ = true;
  current_src_ = src_host;
  observed_hops_ = 0;
  head_ = topo::PortRef{src_host, 0};
  head_known_ = src_host < topo_->node_capacity() && topo_->node_alive(src_host);
}

void ConservationChecker::on_hop(topo::WireId wire, topo::PortRef from,
                                 topo::PortRef to) {
  if (!in_flight_) {
    violate("wire crossing outside any message");
    return;
  }
  ++observed_hops_;
  ++traversals_seen_;
  if (wire >= topo_->wire_capacity() || !topo_->wire_alive(wire)) {
    violate("hop " + std::to_string(observed_hops_) + " crossed dead wire " +
            std::to_string(wire));
    return;
  }
  // The crossing must be exactly what the topology records for this wire:
  // both ends carry the wire at the named ports.
  const auto check_end = [&](const topo::PortRef& end, const char* which) {
    if (end.node >= topo_->node_capacity() || !topo_->node_alive(end.node)) {
      violate(std::string("hop ") + which + " end names dead node " +
              std::to_string(end.node));
      return false;
    }
    if (end.port >= topo_->port_count(end.node) ||
        topo_->wire_at(end.node, end.port) != wire) {
      violate(std::string("hop ") + which + " end (" +
              topo_->name(end.node) + ":" + std::to_string(end.port) +
              ") does not carry wire " + std::to_string(wire));
      return false;
    }
    return true;
  };
  const bool ends_ok = check_end(from, "from") & check_end(to, "to");
  // Worm continuity: the head leaves the node it last arrived at.
  if (head_known_ && from.node != head_.node) {
    violate("discontinuous path: hop " + std::to_string(observed_hops_) +
            " leaves " + std::to_string(from.node) + " but the head was at " +
            std::to_string(head_.node));
  }
  if (ends_ok) {
    head_ = to;
    head_known_ = true;
  }
}

void ConservationChecker::on_message_end(
    const simnet::DeliveryResult& result,
    const simnet::NetworkCounters& counters) {
  if (!in_flight_) {
    violate("message ended without a matching begin");
    return;
  }
  in_flight_ = false;
  ++messages_seen_;

  if (result.hops != observed_hops_) {
    std::ostringstream oss;
    oss << "hop conservation: result reports " << result.hops
        << " hops but the network crossed " << observed_hops_ << " wires";
    violate(oss.str());
  }
  const std::uint64_t status_sum =
      std::accumulate(counters.by_status.begin(), counters.by_status.end(),
                      std::uint64_t{0});
  if (status_sum != counters.messages) {
    std::ostringstream oss;
    oss << "counter conservation: per-status sum " << status_sum
        << " != message total " << counters.messages;
    violate(oss.str());
  }
  if (have_baseline_) {
    if (counters.messages != last_messages_ + 1) {
      std::ostringstream oss;
      oss << "message counter advanced by "
          << (counters.messages - last_messages_) << ", expected 1";
      violate(oss.str());
    }
    if (counters.wire_traversals !=
        last_traversals_ + static_cast<std::uint64_t>(observed_hops_)) {
      std::ostringstream oss;
      oss << "traversal counter advanced by "
          << (counters.wire_traversals - last_traversals_) << ", expected "
          << observed_hops_;
      violate(oss.str());
    }
  }
  last_messages_ = counters.messages;
  last_traversals_ = counters.wire_traversals;
  have_baseline_ = true;

  if (result.delivered()) {
    if (result.destination >= topo_->node_capacity() ||
        !topo_->node_alive(result.destination) ||
        !topo_->is_host(result.destination)) {
      violate("delivered message ended at a non-host destination " +
              std::to_string(result.destination));
    }
    if (result.destination == current_src_ && observed_hops_ == 0) {
      violate("message delivered to its own source without leaving it");
    }
  }
}

void ConservationChecker::finish() {
  if (in_flight_) {
    violate("message began but never ended");
    in_flight_ = false;
  }
  if (suppressed_ > 0) {
    std::string note(1, '(');
    note += std::to_string(suppressed_);
    note += " further violations suppressed)";
    violations_.push_back(std::move(note));
    suppressed_ = 0;
  }
}

}  // namespace sanmap::verify
