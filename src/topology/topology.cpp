#include "topology/topology.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.hpp"

namespace sanmap::topo {

namespace {

/// The process-wide source of Topology::version() stamps. Per-object
/// counters would let two distinct topologies share a stamp, so assigning
/// one into the other would go unseen by a cache keyed on the stamp.
std::uint64_t next_version() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

}  // namespace

NodeId Topology::add_node(NodeKind node_kind, std::string node_name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  version_ = next_version();
  if (node_name.empty()) {
    // Built by appending to a fresh string: GCC 12 at -O3 misreads both
    // `"h" + std::to_string(id)` and assigning a literal to the parameter
    // as overlapping memcpys (-Wrestrict).
    std::string generated(1, node_kind == NodeKind::kHost ? 'h' : 's');
    generated += std::to_string(id);
    node_name = std::move(generated);
  }
  if (node_kind == NodeKind::kHost) {
    SANMAP_CHECK_MSG(!host_by_name_.contains(node_name),
                     "duplicate host name: " << node_name);
    host_by_name_.emplace(node_name, id);
    ++num_hosts_;
  } else {
    ++num_switches_;
  }
  NodeRec rec;
  rec.kind = node_kind;
  rec.name = std::move(node_name);
  rec.ports.assign(
      static_cast<std::size_t>(node_kind == NodeKind::kHost ? kHostPorts
                                                            : kSwitchPorts),
      kInvalidWire);
  nodes_.push_back(std::move(rec));
  return id;
}

NodeId Topology::add_host(std::string node_name) {
  return add_node(NodeKind::kHost, std::move(node_name));
}

NodeId Topology::add_switch(std::string node_name) {
  return add_node(NodeKind::kSwitch, std::move(node_name));
}

void Topology::node_check_failed(NodeId n) const {
  SANMAP_CHECK_MSG(n < nodes_.size() && nodes_[n].alive,
                   "invalid or dead node id " << n);
  std::abort();  // unreachable: called only when the check fails
}

void Topology::wire_check_failed(WireId w) const {
  SANMAP_CHECK_MSG(w < wires_.size() && wires_[w].alive,
                   "invalid or dead wire id " << w);
  std::abort();  // unreachable: called only when the check fails
}

void Topology::check_port(NodeId n, Port p) const {
  check_node(n);
  SANMAP_CHECK_MSG(
      p >= 0 && static_cast<std::size_t>(p) < nodes_[n].ports.size(),
      "port " << p << " out of range on node " << n);
}

WireId Topology::connect(NodeId a, Port pa, NodeId b, Port pb) {
  check_port(a, pa);
  check_port(b, pb);
  SANMAP_CHECK_MSG(!(a == b && pa == pb), "wire cannot connect a port to itself");
  SANMAP_CHECK_MSG(nodes_[a].ports[static_cast<std::size_t>(pa)] ==
                       kInvalidWire,
                   "port " << pa << " on node " << a << " already wired");
  SANMAP_CHECK_MSG(nodes_[b].ports[static_cast<std::size_t>(pb)] ==
                       kInvalidWire,
                   "port " << pb << " on node " << b << " already wired");
  const auto id = static_cast<WireId>(wires_.size());
  wires_.push_back(WireRec{Wire{PortRef{a, pa}, PortRef{b, pb}}, true});
  nodes_[a].ports[static_cast<std::size_t>(pa)] = id;
  nodes_[b].ports[static_cast<std::size_t>(pb)] = id;
  ++num_wires_;
  version_ = next_version();
  return id;
}

WireId Topology::connect_any(NodeId a, NodeId b) {
  const auto pa = free_port(a);
  SANMAP_CHECK_MSG(pa.has_value(), "node " << a << " has no free port");
  // For a == b we must pick two distinct free ports.
  std::optional<Port> pb;
  if (a == b) {
    const auto& ports = nodes_[a].ports;
    for (Port p = *pa + 1; static_cast<std::size_t>(p) < ports.size(); ++p) {
      if (ports[static_cast<std::size_t>(p)] == kInvalidWire) {
        pb = p;
        break;
      }
    }
  } else {
    pb = free_port(b);
  }
  SANMAP_CHECK_MSG(pb.has_value(), "node " << b << " has no free port");
  return connect(a, *pa, b, *pb);
}

void Topology::disconnect(WireId w) {
  SANMAP_CHECK_MSG(w < wires_.size() && wires_[w].alive,
                   "invalid or dead wire id " << w);
  const Wire& rec = wires_[w].wire;
  nodes_[rec.a.node].ports[static_cast<std::size_t>(rec.a.port)] =
      kInvalidWire;
  nodes_[rec.b.node].ports[static_cast<std::size_t>(rec.b.port)] =
      kInvalidWire;
  wires_[w].alive = false;
  --num_wires_;
  version_ = next_version();
}

void Topology::remove_node(NodeId n) {
  check_node(n);
  for (const WireId w : nodes_[n].ports) {
    if (w != kInvalidWire) {
      disconnect(w);
    }
  }
  nodes_[n].alive = false;
  version_ = next_version();
  if (nodes_[n].kind == NodeKind::kHost) {
    host_by_name_.erase(nodes_[n].name);
    --num_hosts_;
  } else {
    --num_switches_;
  }
}

Port Topology::port_count(NodeId n) const {
  check_node(n);
  return static_cast<Port>(nodes_[n].ports.size());
}

std::optional<WireId> Topology::wire_at(NodeId n, Port p) const {
  check_port(n, p);
  const WireId w = nodes_[n].ports[static_cast<std::size_t>(p)];
  if (w == kInvalidWire) {
    return std::nullopt;
  }
  return w;
}

std::optional<PortRef> Topology::peer(NodeId n, Port p) const {
  const auto w = wire_at(n, p);
  if (!w) {
    return std::nullopt;
  }
  return wires_[*w].wire.opposite(PortRef{n, p});
}

int Topology::degree(NodeId n) const {
  check_node(n);
  int d = 0;
  for (const WireId w : nodes_[n].ports) {
    if (w != kInvalidWire) {
      ++d;
    }
  }
  return d;
}

std::vector<NodeId> Topology::nodes() const {
  std::vector<NodeId> out;
  out.reserve(num_nodes());
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].alive) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  out.reserve(num_hosts_);
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].alive && nodes_[n].kind == NodeKind::kHost) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<NodeId> Topology::switches() const {
  std::vector<NodeId> out;
  out.reserve(num_switches_);
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].alive && nodes_[n].kind == NodeKind::kSwitch) {
      out.push_back(n);
    }
  }
  return out;
}

std::vector<WireId> Topology::wires() const {
  std::vector<WireId> out;
  out.reserve(num_wires_);
  for (WireId w = 0; w < wires_.size(); ++w) {
    if (wires_[w].alive) {
      out.push_back(w);
    }
  }
  return out;
}

std::vector<PortRef> Topology::neighbors(NodeId n) const {
  check_node(n);
  std::vector<PortRef> out;
  const auto& ports = nodes_[n].ports;
  for (Port p = 0; static_cast<std::size_t>(p) < ports.size(); ++p) {
    const WireId w = ports[static_cast<std::size_t>(p)];
    if (w != kInvalidWire) {
      out.push_back(wires_[w].wire.opposite(PortRef{n, p}));
    }
  }
  return out;
}

std::span<const WireId> Topology::port_wires(NodeId n) const {
  check_node(n);
  return nodes_[n].ports;
}

std::optional<NodeId> Topology::find_host(const std::string& host_name) const {
  const auto it = host_by_name_.find(host_name);
  if (it == host_by_name_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<Port> Topology::free_port(NodeId n) const {
  check_node(n);
  const auto& ports = nodes_[n].ports;
  for (Port p = 0; static_cast<std::size_t>(p) < ports.size(); ++p) {
    if (ports[static_cast<std::size_t>(p)] == kInvalidWire) {
      return p;
    }
  }
  return std::nullopt;
}

Topology Topology::compacted() const {
  Topology out;
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!nodes_[n].alive) {
      continue;
    }
    remap[n] = nodes_[n].kind == NodeKind::kHost
                   ? out.add_host(nodes_[n].name)
                   : out.add_switch(nodes_[n].name);
  }
  for (const WireRec& rec : wires_) {
    if (!rec.alive) {
      continue;
    }
    out.connect(remap[rec.wire.a.node], rec.wire.a.port,
                remap[rec.wire.b.node], rec.wire.b.port);
  }
  return out;
}

bool Topology::structurally_equal(const Topology& other) const {
  if (num_hosts_ != other.num_hosts_ ||
      num_switches_ != other.num_switches_ ||
      num_wires_ != other.num_wires_ ||
      nodes_.size() != other.nodes_.size()) {
    return false;
  }
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].alive != other.nodes_[n].alive) {
      return false;
    }
    if (!nodes_[n].alive) {
      continue;
    }
    if (nodes_[n].kind != other.nodes_[n].kind ||
        nodes_[n].name != other.nodes_[n].name) {
      return false;
    }
    for (Port p = 0; static_cast<std::size_t>(p) < nodes_[n].ports.size();
         ++p) {
      const auto mine = peer(n, p);
      const auto theirs = other.peer(n, p);
      if (mine != theirs) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace sanmap::topo
