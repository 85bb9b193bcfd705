#include "service/snapshot_codec.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topology/serialize.hpp"

namespace sanmap::service {

namespace {

constexpr char kMagic[8] = {'S', 'A', 'N', 'M', 'S', 'N', 'A', 'P'};
// v2 appends a routing-engine word and the optimizer flag after `source`;
// v1 payloads decode with the defaults (unoptimized). UP*/DOWN* is the only
// engine, so the engine word is always 0: encode writes it and decode
// refuses anything else rather than recompute a table it cannot reproduce.
constexpr std::uint32_t kVersion = 2;

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint8_t>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// -- primitive writers (little-endian) --------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// -- primitive readers -------------------------------------------------------

class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_++]))
           << shift;
    }
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_++]))
           << shift;
    }
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str() {
    const std::uint32_t size = u32();
    need(size);
    std::string s(data_ + pos_, size);
    pos_ += size;
    return s;
  }

  std::int8_t i8() {
    need(1);
    return static_cast<std::int8_t>(data_[pos_++]);
  }

  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t bytes) {
    if (size_ - pos_ < bytes) {
      throw std::runtime_error("snapshot: truncated payload");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_snapshot(const MapSnapshot& snapshot) {
  std::string payload;
  put_u64(payload, snapshot.epoch);
  put_i64(payload, snapshot.created_at.to_ns());
  put_u64(payload, snapshot.options.route_seed);
  put_str(payload, snapshot.options.root_name);
  put_str(payload, snapshot.options.source);
  put_u32(payload, 0);  // routing engine: UP*/DOWN*
  payload.push_back(snapshot.options.optimize ? 1 : 0);
  put_str(payload, topo::to_text(snapshot.map));

  put_u32(payload, static_cast<std::uint32_t>(snapshot.routes.routes.size()));
  for (const auto& [pair, route] : snapshot.routes.routes) {
    put_str(payload, snapshot.map.name(pair.first));
    put_str(payload, snapshot.map.name(pair.second));
    put_u32(payload, static_cast<std::uint32_t>(route.turns.size()));
    for (const simnet::Turn turn : route.turns) {
      payload.push_back(static_cast<char>(static_cast<std::int8_t>(turn)));
    }
  }

  std::string out;
  out.reserve(28 + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kVersion);
  put_u64(out, payload.size());
  put_u64(out, fnv1a(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

MapSnapshot decode_snapshot(const std::string& bytes) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 8 + 8;
  if (bytes.size() < kHeader ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("snapshot: bad magic");
  }
  Reader header(bytes.data() + sizeof(kMagic), kHeader - sizeof(kMagic));
  const std::uint32_t version = header.u32();
  if (version != 1 && version != kVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  if (bytes.size() - kHeader != payload_size) {
    throw std::runtime_error("snapshot: size mismatch");
  }
  if (fnv1a(bytes.data() + kHeader, payload_size) != checksum) {
    throw std::runtime_error("snapshot: checksum mismatch");
  }

  Reader payload(bytes.data() + kHeader, payload_size);
  const std::uint64_t epoch = payload.u64();
  const std::int64_t created_ns = payload.i64();
  SnapshotOptions options;
  options.route_seed = payload.u64();
  options.root_name = payload.str();
  options.source = payload.str();
  if (version >= 2) {
    const std::uint32_t engine = payload.u32();
    if (engine != 0) {
      throw std::runtime_error("snapshot: unsupported routing engine " +
                               std::to_string(engine));
    }
    const std::int8_t optimize = payload.i8();
    if (optimize != 0 && optimize != 1) {
      throw std::runtime_error("snapshot: unsupported optimizer flag " +
                               std::to_string(optimize));
    }
    options.optimize = optimize == 1;
  }
  const std::string map_text = payload.str();

  // Rebuild the snapshot from first principles (the router is deterministic
  // given map + root + seed), then hold the stored routes against it.
  const topo::Topology map = topo::from_text(map_text);
  MapSnapshot snapshot =
      build_snapshot(map, options, common::SimTime::ns(created_ns));
  snapshot.epoch = epoch;

  const std::uint32_t route_count = payload.u32();
  if (route_count != snapshot.routes.routes.size()) {
    throw std::runtime_error(
        "snapshot: stored route count disagrees with recomputation");
  }
  for (std::uint32_t i = 0; i < route_count; ++i) {
    const std::string src = payload.str();
    const std::string dst = payload.str();
    const std::uint32_t turn_count = payload.u32();
    simnet::Route turns;
    turns.reserve(turn_count);
    for (std::uint32_t t = 0; t < turn_count; ++t) {
      turns.push_back(static_cast<simnet::Turn>(payload.i8()));
    }
    const auto s = snapshot.map.find_host(src);
    const auto d = snapshot.map.find_host(dst);
    if (!s || !d) {
      throw std::runtime_error("snapshot: route endpoint " + src + " -> " +
                               dst + " missing from the map");
    }
    const auto it = snapshot.routes.routes.find({*s, *d});
    if (it == snapshot.routes.routes.end() || it->second.turns != turns) {
      throw std::runtime_error("snapshot: stored route " + src + " -> " + dst +
                               " disagrees with this build's router");
    }
  }
  if (!payload.exhausted()) {
    throw std::runtime_error("snapshot: trailing bytes after routes");
  }
  return snapshot;
}

void write_snapshot_file(const std::string& path,
                         const MapSnapshot& snapshot) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  const std::string bytes = encode_snapshot(snapshot);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("short write to " + path);
  }
}

MapSnapshot read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return decode_snapshot(buffer.str());
}

}  // namespace sanmap::service
