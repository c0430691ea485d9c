#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "hpcqc/common/error.hpp"
#include "hpcqc/common/log.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/common/stats.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/common/units.hpp"

namespace {
// Every global operator new in this test executable, so a test can show
// that a code path allocates nothing.
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Kept out of line: inlined into one caller, a malloc-backed new and a
// free-backed delete read to GCC as a mismatched allocation pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hpcqc {
namespace {

TEST(Error, ExpectsThrowsWithMessage) {
  EXPECT_NO_THROW(expects(true, "fine"));
  try {
    expects(false, "broken contract");
    FAIL() << "expects did not throw";
  } catch (const PreconditionError& err) {
    EXPECT_NE(std::string(err.what()).find("broken contract"),
              std::string::npos);
  }
}

TEST(Error, EnsureStateThrowsStateError) {
  EXPECT_THROW(ensure_state(false, "bad state"), StateError);
}

TEST(Error, PassingChecksAllocateNothing) {
  // Far past std::string's 15-character inline buffer: a check that built
  // its message eagerly would allocate on every call.
  static constexpr char kMessage[] = "Widget::frob: the frobnication overflows";
  static_assert(sizeof(kMessage) - 1 == 40);
  volatile bool holds = true;  // opaque to the optimizer

  const std::size_t before_probe = g_allocations.load();
  const std::string probe(kMessage);
  ASSERT_GT(g_allocations.load(), before_probe)
      << "the counting operator new is not installed";

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    expects(holds, kMessage);
    ensure_state(holds, kMessage);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);

  // The failing paths still carry the whole message.
  holds = false;
  try {
    expects(holds, kMessage);
    FAIL() << "expects did not throw";
  } catch (const PreconditionError& err) {
    EXPECT_NE(std::string(err.what()).find(probe), std::string::npos);
  }
  try {
    ensure_state(holds, kMessage);
    FAIL() << "ensure_state did not throw";
  } catch (const StateError& err) {
    EXPECT_NE(std::string(err.what()).find(probe), std::string::npos);
  }
}

TEST(Error, LocationIsRelativeToTheRepositoryRoot) {
  // Error text must not depend on where the repository is checked out.
  try {
    throw StateError("thrown in the test file");
  } catch (const Error& err) {
    EXPECT_EQ(std::string(err.what()).rfind("tests/common_test.cpp:", 0), 0u)
        << err.what();
  }
  try {
    percentile({}, 0.5);
    FAIL() << "percentile of an empty sample did not throw";
  } catch (const PreconditionError& err) {
    EXPECT_EQ(std::string(err.what()).rfind("src/common/stats.cpp:", 0), 0u)
        << err.what();
  }
}

TEST(Error, TransientVsPermanentTaxonomy) {
  // The retry machinery keys off the code: transient codes are retriable,
  // everything else is not.
  EXPECT_TRUE(is_transient(ErrorCode::kTransient));
  EXPECT_TRUE(is_transient(ErrorCode::kTimeout));
  EXPECT_TRUE(is_transient(ErrorCode::kDeviceUnavailable));
  EXPECT_TRUE(is_transient(ErrorCode::kNetwork));
  EXPECT_TRUE(is_transient(ErrorCode::kCalibrationFailed));
  EXPECT_FALSE(is_transient(ErrorCode::kGeneric));
  EXPECT_FALSE(is_transient(ErrorCode::kPrecondition));
  EXPECT_FALSE(is_transient(ErrorCode::kInternal));

  const TransientError transient("qpu busy");
  EXPECT_TRUE(transient.transient());
  EXPECT_EQ(transient.code(), ErrorCode::kTransient);
  const TransientError timeout("no answer", ErrorCode::kTimeout);
  EXPECT_EQ(timeout.code(), ErrorCode::kTimeout);

  const PermanentError permanent("bad circuit");
  EXPECT_FALSE(permanent.transient());

  // The legacy subclasses carry fixed, non-transient codes.
  try {
    expects(false, "contract");
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kPrecondition);
    EXPECT_FALSE(error.transient());
  }
  EXPECT_STREQ(to_string(ErrorCode::kDeviceUnavailable),
               "device-unavailable");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  RunningStats small;
  for (int i = 0; i < 50000; ++i)
    small.add(static_cast<double>(rng.poisson(3.5)));
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  RunningStats large;
  for (int i = 0; i < 20000; ++i)
    large.add(static_cast<double>(rng.poisson(120.0)));
  EXPECT_NEAR(large.mean(), 120.0, 1.0);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(3);
  Rng child = parent.fork();
  // The child should not replay the parent's output.
  Rng parent_copy(3);
  (void)parent_copy.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i)
    if (child() == parent()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptySamples) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

TEST(Stats, Rms) {
  const std::vector<double> xs{3.0, -4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(Stats, PercentileAndMedian) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
}

TEST(Stats, PercentileContracts) {
  EXPECT_THROW(percentile({}, 0.5), PreconditionError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, 1.5), PreconditionError);
}

TEST(Stats, Correlation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(correlation(xs, zs), -1.0, 1e-12);
  const std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(correlation(xs, flat), 0.0);
}

TEST(Stats, Histogram) {
  const std::vector<double> xs{0.1, 0.2, 0.6, 0.9, -5.0, 99.0};
  const auto counts = histogram(xs, 0.0, 1.0, 2);
  EXPECT_EQ(counts[0], 3u);  // 0.1, 0.2, and clamped -5.0
  EXPECT_EQ(counts[1], 3u);  // 0.6, 0.9, and clamped 99.0
}

TEST(Stats, RunningStatsMinMax) {
  RunningStats stats;
  stats.add(3.0);
  stats.add(-1.0);
  stats.add(7.0);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(minutes(40.0), 2400.0);
  EXPECT_DOUBLE_EQ(hours(2.0), 7200.0);
  EXPECT_DOUBLE_EQ(to_days(days(146.0)), 146.0);
  EXPECT_DOUBLE_EQ(microseconds(300.0), 3e-4);
}

TEST(Units, TemperatureConversions) {
  EXPECT_DOUBLE_EQ(celsius(0.0), 273.15);
  EXPECT_DOUBLE_EQ(to_celsius(celsius(21.0)), 21.0);
  EXPECT_DOUBLE_EQ(millikelvin(10.0), 0.01);
}

TEST(Units, SoundPressureRoundTrip) {
  EXPECT_NEAR(pascal_to_db_spl(db_spl_to_pascal(80.0)), 80.0, 1e-9);
  EXPECT_NEAR(pascal_to_db_spl(20e-6), 0.0, 1e-9);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  clock.advance(5.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  clock.advance_to(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  EXPECT_THROW(clock.advance(-1.0), PreconditionError);
  EXPECT_THROW(clock.advance_to(9.0), PreconditionError);
}

TEST(Table, PrintAndCsv) {
  Table table({"name", "value"});
  table.add_row({"alpha", Table::num(1.5, 1)});
  table.add_row({"beta, gamma", "x\"y"});
  EXPECT_EQ(table.rows(), 2u);
  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("| name"), std::string::npos);
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_NE(csv.str().find("\"beta, gamma\""), std::string::npos);
  EXPECT_NE(csv.str().find("\"x\"\"y\""), std::string::npos);
}

TEST(Table, ArityEnforced) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(table.row(0), PreconditionError);
}

TEST(EventLog, RecordsAndFilters) {
  EventLog log;
  log.info(0.0, "qrm", "starting");
  log.warning(10.0, "cryo", "warm");
  log.error(20.0, "qrm", "offline");
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.by_component("qrm").size(), 2u);
  EXPECT_EQ(log.count(LogLevel::kError), 1u);
}

TEST(EventLog, MinLevelSuppresses) {
  EventLog log;
  log.set_min_level(LogLevel::kWarning);
  log.debug(0.0, "x", "ignored");
  log.info(0.0, "x", "ignored");
  log.warning(0.0, "x", "kept");
  EXPECT_EQ(log.records().size(), 1u);
}

TEST(EventLog, SinkReceivesRecords) {
  EventLog log;
  int received = 0;
  log.set_sink([&](const LogRecord&) { ++received; });
  log.info(0.0, "x", "one");
  log.info(0.0, "x", "two");
  EXPECT_EQ(received, 2);
}

}  // namespace
}  // namespace hpcqc
