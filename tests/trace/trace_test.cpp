#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "support/temp_dir.hpp"

namespace pulse::trace {
namespace {

TEST(Trace, EmptyConstruction) {
  Trace t(3, 100);
  EXPECT_EQ(t.function_count(), 3u);
  EXPECT_EQ(t.duration(), 100);
  EXPECT_EQ(t.total_invocations(), 0u);
  EXPECT_EQ(t.count(0, 50), 0u);
}

TEST(Trace, DefaultFunctionNames) {
  Trace t(2, 10);
  EXPECT_EQ(t.function_name(0), "fn0");
  EXPECT_EQ(t.function_name(1), "fn1");
}

TEST(Trace, SetAndAddCounts) {
  Trace t(2, 10);
  t.set_count(0, 3, 5);
  t.add_invocations(0, 3, 2);
  t.add_invocations(1, 3);
  EXPECT_EQ(t.count(0, 3), 7u);
  EXPECT_EQ(t.count(1, 3), 1u);
  EXPECT_EQ(t.invocations_at(3), 8u);
}

TEST(Trace, CountOutsideHorizonIsZero) {
  Trace t(1, 10);
  EXPECT_EQ(t.count(0, -1), 0u);
  EXPECT_EQ(t.count(0, 10), 0u);
  EXPECT_EQ(t.invocations_at(999), 0u);
}

TEST(Trace, SetOutsideHorizonThrows) {
  Trace t(1, 10);
  EXPECT_THROW(t.set_count(0, 10, 1), std::out_of_range);
  EXPECT_THROW(t.add_invocations(0, -1), std::out_of_range);
}

TEST(Trace, TotalsAndAggregate) {
  Trace t(2, 5);
  t.set_count(0, 0, 1);
  t.set_count(0, 4, 2);
  t.set_count(1, 4, 3);
  EXPECT_EQ(t.total_invocations(0), 3u);
  EXPECT_EQ(t.total_invocations(1), 3u);
  EXPECT_EQ(t.total_invocations(), 6u);
  const auto agg = t.aggregate_series();
  ASSERT_EQ(agg.size(), 5u);
  EXPECT_EQ(agg[0], 1u);
  EXPECT_EQ(agg[4], 5u);
}

TEST(Trace, InvocationMinutes) {
  Trace t(1, 20);
  t.set_count(0, 2, 1);
  t.set_count(0, 9, 4);
  t.set_count(0, 15, 1);
  const auto minutes = t.invocation_minutes(0);
  EXPECT_EQ(minutes, (std::vector<Minute>{2, 9, 15}));
}

TEST(Trace, SliceExtractsWindow) {
  Trace t(2, 20);
  t.set_count(0, 5, 2);
  t.set_count(1, 10, 3);
  t.set_function_name(0, "alpha");
  const Trace s = t.slice(5, 12);
  EXPECT_EQ(s.duration(), 7);
  EXPECT_EQ(s.count(0, 0), 2u);
  EXPECT_EQ(s.count(1, 5), 3u);
  EXPECT_EQ(s.function_name(0), "alpha");
}

TEST(Trace, SliceInvalidRangeThrows) {
  Trace t(1, 10);
  EXPECT_THROW(t.slice(-1, 5), std::out_of_range);
  EXPECT_THROW(t.slice(5, 11), std::out_of_range);
  EXPECT_THROW(t.slice(8, 3), std::out_of_range);
}

TEST(Trace, SeriesSpanMatchesCounts) {
  Trace t(1, 4);
  t.set_count(0, 1, 9);
  const auto s = t.series(0);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[1], 9u);
}

TEST(Trace, CsvRoundTrip) {
  Trace t(2, 6);
  t.set_count(0, 0, 1);
  t.set_count(1, 5, 7);
  t.set_function_name(1, "periodic fn");
  const test::ScopedTempDir tmp;
  const auto path = tmp.path() / "trace.csv";
  t.save_csv(path);
  const Trace back = Trace::load_csv(path);

  EXPECT_EQ(back.function_count(), 2u);
  EXPECT_EQ(back.duration(), 6);
  EXPECT_EQ(back.count(0, 0), 1u);
  EXPECT_EQ(back.count(1, 5), 7u);
  EXPECT_EQ(back.function_name(1), "periodic fn");
}

TEST(Trace, NegativeDurationThrows) { EXPECT_THROW(Trace(1, -5), std::invalid_argument); }

}  // namespace
}  // namespace pulse::trace
