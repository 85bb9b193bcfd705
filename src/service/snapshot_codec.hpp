// Binary snapshot persistence: the catalog's at-rest format.
//
// Layout ("sanmap snapshot v2", little-endian):
//
//   magic   8 bytes  "SANMSNAP"
//   version u32      2 (1 is still decoded: it lacks engine and optimize)
//   size    u64      payload byte count
//   check   u64      FNV-1a 64 of the payload bytes
//   payload:
//     epoch u64 | created_at_ns i64 | route_seed u64
//     root_name str | source str
//     engine u32 (always 0, UP*/DOWN*) | optimize u8 (0 or 1)
//     map_text str
//     route_count u32
//     per route: src_name str, dst_name str, turn_count u32, turns i8...
//   (str = u32 length + raw bytes)
//
// The map travels as its v1 text serialization (one format to maintain);
// the routes travel as the actual per-pair turn sequences — the bytes a
// NIC would be handed. Decoding recomputes the routes from (map, root,
// seed) with the deterministic router and cross-checks every stored turn
// sequence against the recomputation: the checksum catches bit rot, the
// cross-check catches a snapshot produced by a router that disagrees with
// this build (version skew), and a decoded snapshot always carries a
// freshly verified deadlock analysis rather than a stored claim.
#pragma once

#include <iosfwd>
#include <string>

#include "service/snapshot.hpp"

namespace sanmap::service {

/// Serializes a snapshot to the binary format.
std::string encode_snapshot(const MapSnapshot& snapshot);

/// Parses and verifies a binary snapshot. Throws std::runtime_error on a
/// bad magic/version, truncation, checksum mismatch, an engine word other
/// than 0 or an optimizer flag other than 0/1, or a route set that
/// disagrees with this build's router. The returned snapshot keeps its
/// recorded epoch (a catalog re-publish assigns a fresh one).
MapSnapshot decode_snapshot(const std::string& bytes);

/// File convenience wrappers (binary mode). Throw std::runtime_error on
/// I/O failure.
void write_snapshot_file(const std::string& path, const MapSnapshot& snapshot);
MapSnapshot read_snapshot_file(const std::string& path);

}  // namespace sanmap::service
