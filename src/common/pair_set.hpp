// An exact set of (from, to) pairs of 32-bit ids: open addressing with
// linear probing over one flat array of packed 64-bit keys, grown to twice
// its size whenever it would pass half load. The channel-dependency
// derivations use it to deduplicate edges in O(1) per hop, where a linear
// find over a successor list grew with the list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sanmap::common {

class PairSet {
 public:
  /// Pairs held before the first growth (half of the first slot count).
  static constexpr std::size_t kInitialCapacity = 512;

  /// Adds (from, to); true when the pair was not in the set yet.
  bool insert(std::uint32_t from, std::uint32_t to) {
    const std::uint64_t key = (std::uint64_t{from} << 32) | to;
    if (key == kEmpty) {
      // The one pair whose packed key is the empty-slot marker.
      const bool added = !has_empty_key_;
      has_empty_key_ = true;
      return added;
    }
    if (2 * (count_ + 1) > slots_.size()) {
      grow();
    }
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == key) {
        return false;
      }
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        ++count_;
        return true;
      }
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Fibonacci hashing: the top log2(slots) bits of key * 2^64/phi.
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old(
        slots_.empty() ? 2 * kInitialCapacity : 2 * slots_.size(), kEmpty);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) {
      --shift_;
    }
    for (const std::uint64_t key : old) {
      if (key == kEmpty) {
        continue;
      }
      std::size_t i = home(key);
      while (slots_[i] != kEmpty) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  int shift_ = 64;
  /// Keys in `slots_`.
  std::size_t count_ = 0;
  /// Whether the pair whose key is kEmpty was added; it has no slot.
  bool has_empty_key_ = false;
};

}  // namespace sanmap::common
