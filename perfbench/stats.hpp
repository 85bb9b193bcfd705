// Sample statistics and the result line every workload prints.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples`, linearly interpolated between
/// order statistics; 0 for no samples.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double s : samples) {
    sum += s;
  }
  return sum / static_cast<double>(samples.size());
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// A latency histogram for samples too many to keep: exact below 64 ns,
/// then 32 buckets per power of two (about 2% resolution).
class LatencyHistogram {
 public:
  void add(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// The q-quantile in nanoseconds, interpolated by rank within its bucket.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) {
        continue;
      }
      if (static_cast<double>(seen + buckets_[i]) > rank) {
        const double within = (rank - static_cast<double>(seen) + 0.5) /
                              static_cast<double>(buckets_[i]);
        return lower(i) + within * width(i);
      }
      seen += buckets_[i];
    }
    return lower(kBuckets - 1);
  }

 private:
  static constexpr std::size_t kSub = 32;
  static constexpr std::size_t kLinear = 64;
  static constexpr std::size_t kBuckets = kLinear + 58 * kSub;

  static std::size_t index(std::uint64_t ns) {
    if (ns < kLinear) {
      return static_cast<std::size_t>(ns);
    }
    const auto exp = static_cast<int>(std::bit_width(ns)) - 1;  // >= 6
    const auto sub = static_cast<std::size_t>((ns >> (exp - 5)) & (kSub - 1));
    return std::min(kBuckets - 1,
                    kLinear + static_cast<std::size_t>(exp - 6) * kSub + sub);
  }
  static double lower(std::size_t i) {
    if (i < kLinear) {
      return static_cast<double>(i);
    }
    const std::size_t exp = (i - kLinear) / kSub + 6;
    const std::size_t sub = (i - kLinear) % kSub;
    return static_cast<double>((kSub + sub) << (exp - 5));
  }
  static double width(std::size_t i) {
    return i < kLinear ? 1.0
                       : static_cast<double>(std::uint64_t{1}
                                             << ((i - kLinear) / kSub + 1));
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints a failed check to stderr (the first few of each run).
void report_failure(const char* what, std::uint64_t count);

/// What a run reports: the result line's four keys.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a failed check also makes the run
  /// incorrect and is reported on stderr as `what`.
  void check(bool ok, const char* what) { count(1, ok ? 0 : 1, what); }
  /// Counts `checked` operations of which `wrong` failed.
  void count(std::uint64_t checked, std::uint64_t wrong, const char* what) {
    attempted += checked;
    if (wrong > 0) {
      failed += wrong;
      correct = false;
      report_failure(what, wrong);
    }
  }
  /// Share of the attempted operations that succeeded.
  [[nodiscard]] double ok_fraction() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// The result as one JSON line, every value with all its digits.
std::string to_json(const Result& result);

}  // namespace perfbench
