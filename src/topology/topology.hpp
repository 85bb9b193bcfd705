// The network multigraph N of §2.1: hosts and switches with port-labeled
// wires. Supports dynamic reconfiguration (node/wire removal with tombstones)
// because the paper's motivating scenario is networks that change over time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/types.hpp"

namespace sanmap::topo {

/// A mutable host/switch multigraph with per-port wiring.
///
/// Invariants enforced on mutation:
///  * a port carries at most one wire (paper §2.1: "no two wire-ends incident
///    on the same node share a port number");
///  * switch ports are in {0..7}, host ports are {0};
///  * host names are unique (hosts are uniquely identifiable, §2.3).
///
/// Removal tombstones nodes/wires; iteration helpers return live entities
/// only. compacted() produces a dense renumbered copy.
class Topology {
 public:
  Topology() = default;

  // -- construction ---------------------------------------------------------

  /// Adds a host. An empty name auto-generates a unique "hN" name.
  NodeId add_host(std::string name = "");

  /// Adds a switch. An empty name auto-generates "sN" (switch names are for
  /// diagnostics only — the mapping problem exists precisely because switches
  /// are anonymous on the wire).
  NodeId add_switch(std::string name = "");

  /// Connects port pa of node a to port pb of node b. Both ports must be
  /// free. Self-loops on a single switch (a == b, pa != pb) are permitted —
  /// real Myrinet installations used loopback cables.
  WireId connect(NodeId a, Port pa, NodeId b, Port pb);

  /// Connects using the lowest free port on each side. Returns the new wire.
  WireId connect_any(NodeId a, NodeId b);

  /// Removes a wire, freeing both ports.
  void disconnect(WireId w);

  /// Removes a node and all incident wires.
  void remove_node(NodeId n);

  // -- queries --------------------------------------------------------------

  [[nodiscard]] bool node_alive(NodeId n) const;
  [[nodiscard]] bool wire_alive(WireId w) const;

  [[nodiscard]] NodeKind kind(NodeId n) const;
  [[nodiscard]] bool is_host(NodeId n) const {
    return kind(n) == NodeKind::kHost;
  }
  [[nodiscard]] bool is_switch(NodeId n) const {
    return kind(n) == NodeKind::kSwitch;
  }
  [[nodiscard]] const std::string& name(NodeId n) const;
  [[nodiscard]] Port port_count(NodeId n) const;

  /// The wire attached at (n, p), if any.
  [[nodiscard]] std::optional<WireId> wire_at(NodeId n, Port p) const;
  /// The wire-end on the far side of the wire at (n, p), if any.
  [[nodiscard]] std::optional<PortRef> peer(NodeId n, Port p) const;
  [[nodiscard]] const Wire& wire(WireId w) const;

  /// Number of live wires incident on n (self-loops count twice).
  [[nodiscard]] int degree(NodeId n) const;

  [[nodiscard]] std::size_t num_hosts() const { return num_hosts_; }
  [[nodiscard]] std::size_t num_switches() const { return num_switches_; }
  [[nodiscard]] std::size_t num_nodes() const {
    return num_hosts_ + num_switches_;
  }
  [[nodiscard]] std::size_t num_wires() const { return num_wires_; }

  /// Upper bound over live + dead node ids; use with node_alive() to iterate
  /// without materializing a vector.
  [[nodiscard]] std::size_t node_capacity() const { return nodes_.size(); }
  [[nodiscard]] std::size_t wire_capacity() const { return wires_.size(); }

  /// Live node id lists (stable ascending order).
  [[nodiscard]] std::vector<NodeId> nodes() const;
  [[nodiscard]] std::vector<NodeId> hosts() const;
  [[nodiscard]] std::vector<NodeId> switches() const;
  [[nodiscard]] std::vector<WireId> wires() const;

  /// Live neighbor wire-ends of n in ascending port order. Each element is
  /// the far end of one wire at one of n's ports.
  [[nodiscard]] std::vector<PortRef> neighbors(NodeId n) const;

  /// The raw per-port wire slots of n in port order (kInvalidWire at free
  /// ports): the allocation-free alternative to neighbors() for hot loops.
  /// Follow a live slot with wire(w).opposite(PortRef{n, p}).
  [[nodiscard]] std::span<const WireId> port_wires(NodeId n) const;

  /// Finds a host by its unique name.
  [[nodiscard]] std::optional<NodeId> find_host(const std::string& name) const;

  /// Lowest free port on n, if any.
  [[nodiscard]] std::optional<Port> free_port(NodeId n) const;

  /// Dense copy with tombstones removed and ids renumbered in ascending
  /// order of the original ids. Names are preserved.
  [[nodiscard]] Topology compacted() const;

  /// Structural equality: same live node set (by id), kinds, names, and the
  /// same wires at the same ports. (For equivalence up to renumbering use
  /// topo::isomorphic.)
  [[nodiscard]] bool structurally_equal(const Topology& other) const;

  /// Stamp of the last mutation (add_host, add_switch, connect, disconnect,
  /// remove_node), drawn from one process-wide counter; 0 for a topology
  /// never mutated. Equal stamps imply equal contents, also across objects:
  /// a copy shares its source's stamp until either is mutated, so assigning
  /// a different topology into an object changes its stamp. Consumers that
  /// cache state derived from a topology rebuild when the stamp moves.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  struct NodeRec {
    NodeKind kind = NodeKind::kSwitch;
    std::string name;
    bool alive = true;
    // One slot per port; kInvalidWire when the port is free.
    std::vector<WireId> ports;
  };

  struct WireRec {
    Wire wire;
    bool alive = true;
  };

  NodeId add_node(NodeKind kind, std::string name);
  void check_node(NodeId n) const;
  void check_port(NodeId n, Port p) const;

  std::vector<NodeRec> nodes_;
  std::vector<WireRec> wires_;
  std::unordered_map<std::string, NodeId> host_by_name_;
  std::size_t num_hosts_ = 0;
  std::size_t num_switches_ = 0;
  std::size_t num_wires_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace sanmap::topo
