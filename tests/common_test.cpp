// Unit tests for src/common: rng, stats, table, flags, sim_time, thread
// pool, and the check macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/pair_set.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace sanmap::common {
namespace {

// ---------------------------------------------------------------- check ----

TEST(Check, PassingCheckDoesNothing) { SANMAP_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckFailure) {
  EXPECT_THROW(SANMAP_CHECK(false), CheckFailure);
}

TEST(Check, MessageIsIncluded) {
  try {
    SANMAP_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ----

// ------------------------------------------------------------ PairSet --

TEST(PairSet, AgreesWithStdSetThroughSeveralGrowths) {
  Rng rng(17);
  PairSet set;
  std::set<std::pair<std::uint32_t, std::uint32_t>> reference;
  // Small ids repeat often; a few extreme ones include the pair whose
  // packed key is the set's empty-slot marker.
  const std::uint32_t extremes[] = {0u, 1u, 0xfffffffeu, 0xffffffffu};
  for (int i = 0; i < 20000; ++i) {
    std::uint32_t from = static_cast<std::uint32_t>(rng.below(200));
    std::uint32_t to = static_cast<std::uint32_t>(rng.below(40));
    if (rng.below(50) == 0) {
      from = extremes[rng.below(4)];
      to = extremes[rng.below(4)];
    }
    ASSERT_EQ(set.insert(from, to), reference.insert({from, to}).second)
        << from << " -> " << to;
  }
  EXPECT_GT(reference.size(), 8 * PairSet::kInitialCapacity);
  EXPECT_TRUE(reference.contains({0xffffffffu, 0xffffffffu}));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.next() == b.next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.below(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), CheckFailure);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  // Child should not replay the parent's stream.
  Rng b(21);
  b.next();  // parent consumed one value to fork
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(child.next(), a.next());
}

TEST(Rng, PickReturnsContainedElement) {
  Rng rng(4);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

// ---------------------------------------------------------------- stats ----

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double v : {3.0, 1.0, 2.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 1.0);
}

TEST(Summary, EmptySummaryChecks) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.min(), CheckFailure);
  EXPECT_THROW((void)s.mean(), CheckFailure);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  for (double v : {0.0, 10.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
}

TEST(Summary, MergeCombinesSamples) {
  Summary a;
  a.add(1.0);
  Summary b;
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Summary, MinAvgMaxFormat) {
  Summary s;
  for (double v : {248.0, 256.0, 265.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.min_avg_max(0), "248 / 256 / 265");
}

TEST(Summary, AddAfterSortInvalidatesCache) {
  Summary s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

// ---------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  Table t({"System", "probes"});
  t.add_row({"C", "450"});
  t.add_row({"C+A+B", "2011"});
  const std::string out = t.str();
  EXPECT_NE(out.find("System"), std::string::npos);
  EXPECT_NE(out.find("C+A+B"), std::string::npos);
  // Numbers are right-aligned: "450" should be preceded by spaces to match
  // the width of "probes".
  EXPECT_NE(out.find("   450"), std::string::npos);
}

TEST(Table, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Table, RuleSeparatesSections) {
  Table t({"xy"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.str();
  // Header rule + explicit rule = two dashed lines.
  std::size_t dashed_lines = 0;
  std::istringstream iss(out);
  for (std::string line; std::getline(iss, line);) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++dashed_lines;
    }
  }
  EXPECT_EQ(dashed_lines, 2u);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_percent(0.535, 0), "54%");
  EXPECT_EQ(fmt_percent(0.5, 1), "50.0%");
}

// ---------------------------------------------------------------- flags ----

TEST(Flags, DefaultsApply) {
  Flags flags;
  flags.define("runs", "10", "number of runs");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("runs"), 10);
}

TEST(Flags, EqualsAndSpaceForms) {
  Flags flags;
  flags.define("seed", "1", "seed");
  flags.define("rate", "0.5", "rate");
  const char* argv[] = {"prog", "--seed=42", "--rate", "0.25"};
  ASSERT_TRUE(flags.parse(4, argv));
  EXPECT_EQ(flags.get_int("seed"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 0.25);
}

TEST(Flags, BooleanForms) {
  Flags flags;
  flags.define("verbose", "false", "verbosity");
  flags.define("merge", "true", "merge step");
  const char* argv[] = {"prog", "--verbose", "--no-merge"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_FALSE(flags.get_bool("merge"));
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags;
  flags.define("x", "1", "x");
  const char* argv[] = {"prog", "--typo=3"};
  EXPECT_THROW(flags.parse(2, argv), std::runtime_error);
}

TEST(Flags, PositionalArgumentsCollected) {
  Flags flags;
  flags.define("x", "1", "x");
  const char* argv[] = {"prog", "alpha", "--x=2", "beta"};
  ASSERT_TRUE(flags.parse(4, argv));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "alpha");
  EXPECT_EQ(flags.positional()[1], "beta");
}

TEST(Flags, MalformedNumberThrows) {
  Flags flags;
  flags.define("n", "1", "n");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_THROW((void)flags.get_int("n"), std::runtime_error);
}

TEST(Flags, NumericPrefixIsNotANumber) {
  Flags flags;
  flags.define("dim", "3", "dim");
  flags.define("hosts", "2", "hosts");
  flags.define("rate", "0.5", "rate");
  flags.define("empty", "", "empty");
  const char* argv[] = {"prog", "--dim", "3x", "--hosts", "1.5", "--rate",
                        "0.25ms"};
  ASSERT_TRUE(flags.parse(7, argv));
  EXPECT_THROW((void)flags.get_int("dim"), std::runtime_error);
  EXPECT_THROW((void)flags.get_int("hosts"), std::runtime_error);
  EXPECT_THROW((void)flags.get_double("rate"), std::runtime_error);
  EXPECT_THROW((void)flags.get_int("empty"), std::runtime_error);
  EXPECT_THROW((void)flags.get_double("empty"), std::runtime_error);
  try {
    (void)flags.get_int("dim");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "flag --dim is not an integer: 3x");
  }
}

// ------------------------------------------------------------- sim time ----

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(SimTime::us(1).to_ns(), 1000);
  EXPECT_EQ(SimTime::ms(1).to_ns(), 1'000'000);
  EXPECT_EQ(SimTime::seconds(1).to_ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(SimTime::ms(248).to_ms(), 248.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::us(2);
  const SimTime b = SimTime::ns(500);
  EXPECT_EQ((a + b).to_ns(), 2500);
  EXPECT_EQ((a - b).to_ns(), 1500);
  EXPECT_EQ((a * 3).to_ns(), 6000);
  EXPECT_LT(b, a);
}

TEST(SimTime, FromFractionalMicroseconds) {
  EXPECT_EQ(SimTime::from_us(0.55).to_ns(), 550);
}

TEST(SimTime, AdaptiveFormatting) {
  EXPECT_EQ(SimTime::ns(550).str(), "550 ns");
  EXPECT_EQ(SimTime::ms(248).str(), "248.000 ms");
  EXPECT_NE(SimTime::seconds(2).str().find(" s"), std::string::npos);
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitFutureCarriesWorkerException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("worker"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
  // The pool stays serviceable after a task threw.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForJoinsEveryTaskBeforeRethrowing) {
  // The no-deadlock contract batch callers rest on: a throwing task must
  // not abandon its siblings — parallel_for joins ALL futures first, then
  // rethrows the first exception. Every non-throwing index observably
  // completed even though index 3 threw.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("region down");
                                   }
                                   hits[i]++;
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i == 3 ? 0 : 1) << "index " << i;
  }
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] { done++; });
    }
  }
  EXPECT_EQ(done.load(), 16);
}

}  // namespace
}  // namespace sanmap::common
