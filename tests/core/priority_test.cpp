#include "core/priority.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace pulse::core {
namespace {

TEST(Priority, StartsAllZero) {
  PriorityStructure p(4);
  EXPECT_EQ(p.model_count(), 4u);
  EXPECT_EQ(p.total_downgrades(), 0u);
  for (std::size_t f = 0; f < 4; ++f) EXPECT_EQ(p.downgrade_count(f), 0u);
}

TEST(Priority, AllZeroNormalizesToZero) {
  // Equation 1 degenerate branch at system start.
  PriorityStructure p(3);
  for (double v : p.normalized()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Priority, RecordDowngradeCounts) {
  PriorityStructure p(3);
  p.record_downgrade(1);
  p.record_downgrade(1);
  p.record_downgrade(2);
  EXPECT_EQ(p.downgrade_count(0), 0u);
  EXPECT_EQ(p.downgrade_count(1), 2u);
  EXPECT_EQ(p.downgrade_count(2), 1u);
  EXPECT_EQ(p.total_downgrades(), 3u);
}

TEST(Priority, MostDowngradedGetsHighestPriority) {
  PriorityStructure p(3);
  p.record_downgrade(0);
  p.record_downgrade(2);
  p.record_downgrade(2);
  p.record_downgrade(2);
  const auto n = p.normalized();
  EXPECT_DOUBLE_EQ(n[2], 1.0);
  EXPECT_DOUBLE_EQ(n[1], 0.0);
  EXPECT_GT(n[0], 0.0);
  EXPECT_LT(n[0], 1.0);
}

TEST(Priority, NormalizedValuesInUnitInterval) {
  PriorityStructure p(5);
  for (int i = 0; i < 37; ++i) p.record_downgrade(static_cast<std::size_t>(i * i) % 5);
  for (double v : p.normalized()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Priority, EqualNonzeroCountsNormalizeToZero) {
  // Xmax == Xmin branch applies even when counts are equal but non-zero.
  PriorityStructure p(2);
  p.record_downgrade(0);
  p.record_downgrade(1);
  for (double v : p.normalized()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Priority, SingleModelAlwaysZeroPriority) {
  PriorityStructure p(1);
  p.record_downgrade(0);
  p.record_downgrade(0);
  EXPECT_DOUBLE_EQ(p.normalized()[0], 0.0);
}

TEST(Priority, NormalizedPriorityMatchesVector) {
  PriorityStructure p(3);
  p.record_downgrade(2);
  p.record_downgrade(2);
  p.record_downgrade(0);
  const auto n = p.normalized();
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_DOUBLE_EQ(p.normalized_priority(f), n[f]);
  }
}

TEST(Priority, TrackedMinMaxMatchesFullNormalization) {
  // Random downgrade sequences, including ones where every model reaches
  // the minimum (the tracked minimum must rise and recount): after each
  // downgrade the O(1) per-model value equals the full normalization bit
  // for bit.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Pcg32 rng(seed);
    const std::size_t n = 1 + rng.bounded(12);
    PriorityStructure p(n);
    for (int step = 0; step < 200; ++step) {
      p.record_downgrade(rng.bounded(static_cast<std::uint32_t>(n)));
      std::vector<std::uint64_t> counts(n);
      for (std::size_t f = 0; f < n; ++f) counts[f] = p.downgrade_count(f);
      const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
      ASSERT_EQ(p.min_count(), *lo);
      ASSERT_EQ(p.max_count(), *hi);
      const auto full = p.normalized();
      for (std::size_t f = 0; f < n; ++f) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(p.normalized_priority(f)),
                  std::bit_cast<std::uint64_t>(full[f]));
      }
    }
  }
}

TEST(Priority, OutOfRangeThrows) {
  PriorityStructure p(2);
  EXPECT_THROW(p.record_downgrade(2), std::out_of_range);
  EXPECT_THROW(static_cast<void>(p.downgrade_count(5)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(p.normalized_priority(9)), std::out_of_range);
}

}  // namespace
}  // namespace pulse::core
