#include "core/global_optimizer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pulse::core {
namespace {

/// Two families with distinct accuracy ladders; variants 300/600 MB (A) and
/// 200/800 MB (B). A's high variant is worth Ai = 0.30, B's only 0.05.
models::ModelZoo two_family_zoo() {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "A", "t", "d",
      {models::ModelVariant{"a-low", 1.0, 3.0, 60.0, 300.0},
       models::ModelVariant{"a-high", 2.0, 6.0, 90.0, 600.0}}));
  zoo.add_family(models::ModelFamily(
      "B", "t", "d",
      {models::ModelVariant{"b-low", 1.0, 3.0, 80.0, 200.0},
       models::ModelVariant{"b-high", 2.0, 6.0, 85.0, 800.0}}));
  return zoo;
}

class GlobalOptimizerTest : public ::testing::Test {
 protected:
  GlobalOptimizerTest()
      : zoo_(two_family_zoo()),
        deployment_(sim::Deployment::round_robin(zoo_, 2)),
        schedule_(deployment_, 100),
        trackers_(2, InterArrivalTracker()) {}

  static GlobalOptimizer::Config config_with_threshold(double threshold) {
    GlobalOptimizer::Config c;
    c.peak.memory_threshold = threshold;
    c.peak.local_window = 4;
    return c;
  }

  /// Schedules variants (a_variant/b_variant, kNoVariant to skip) over
  /// [from, to) and runs the optimizer for each of those minutes, so the
  /// demand history is built exactly as in a live simulation.
  void warm(GlobalOptimizer& opt, trace::Minute from, trace::Minute to, int a_variant,
            int b_variant) {
    for (trace::Minute m = from; m < to; ++m) {
      schedule_.set(0, m, a_variant);
      schedule_.set(1, m, b_variant);
      opt.flatten_peak(m, schedule_, trackers_);
    }
  }

  models::ModelZoo zoo_;
  sim::Deployment deployment_;
  sim::KeepAliveSchedule schedule_;
  std::vector<InterArrivalTracker> trackers_;
};

TEST_F(GlobalOptimizerTest, SteadyDemandNeverPeaks) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 20, 1, 1);
  EXPECT_EQ(opt.total_downgrades(), 0u);
  EXPECT_EQ(schedule_.variant_at(0, 19), 1);
  EXPECT_EQ(schedule_.variant_at(1, 19), 1);
}

TEST_F(GlobalOptimizerTest, PeakIsFlattenedToThreshold) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 0, 0);  // steady demand 500 MB
  // Spike: both high -> 1400 MB > 550 MB threshold.
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  const std::size_t downgrades = opt.flatten_peak(10, schedule_, trackers_);
  EXPECT_GT(downgrades, 0u);
  EXPECT_LE(schedule_.memory_at(10), 550.0);
}

TEST_F(GlobalOptimizerTest, LowestUtilityDowngradedFirst) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 1, 0);  // steady 800 MB
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);  // 1400 MB > 880 MB
  opt.flatten_peak(10, schedule_, trackers_);
  // B's high variant only buys 0.05 accuracy vs A's 0.30: B goes first,
  // and one downgrade (1400 -> 800) already flattens the peak.
  EXPECT_EQ(opt.priority().downgrade_count(1), 1u);
  EXPECT_EQ(opt.priority().downgrade_count(0), 0u);
  EXPECT_EQ(schedule_.variant_at(1, 10), 0);
  EXPECT_EQ(schedule_.variant_at(0, 10), 1);
}

TEST_F(GlobalOptimizerTest, PriorityRotatesTheBurden) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 1, 0);
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  opt.flatten_peak(10, schedule_, trackers_);
  ASSERT_EQ(opt.priority().downgrade_count(1), 1u);  // B bore the first peak

  warm(opt, 11, 20, 1, 0);  // steady again
  schedule_.set(0, 20, 1);
  schedule_.set(1, 20, 1);
  opt.flatten_peak(20, schedule_, trackers_);
  // Now Uv(B) = 0.05 + 1.0 (priority) > Uv(A) = 0.30: A is chosen first —
  // the burden rotates instead of hitting B forever.
  EXPECT_GE(opt.priority().downgrade_count(0), 1u);
  EXPECT_EQ(schedule_.variant_at(0, 20), 0);
}

TEST_F(GlobalOptimizerTest, InvocationProbabilityProtectsLikelyFunctions) {
  // B is invoked every 2 minutes (last at minute 8): its Ip ~ 1 during the
  // peak at minute 9 outweighs A's larger accuracy improvement.
  for (trace::Minute t = 0; t <= 8; t += 2) trackers_[1].record(t);
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 9, 0, 1);  // steady 1100 MB
  schedule_.set(0, 9, 1);
  schedule_.set(1, 9, 1);  // 1400 MB > 1210 MB
  opt.flatten_peak(9, schedule_, trackers_);
  EXPECT_EQ(opt.priority().downgrade_count(0), 1u);
  EXPECT_EQ(opt.priority().downgrade_count(1), 0u);
  EXPECT_EQ(schedule_.variant_at(1, 9), 1);  // the likely-invoked B survives
}

TEST_F(GlobalOptimizerTest, DropsEverythingWhenPeakHuge) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  // Steady demand is only A's low variant (300 MB).
  for (trace::Minute m = 0; m < 10; ++m) {
    schedule_.set(0, m, 0);
    opt.flatten_peak(m, schedule_, trackers_);
  }
  // Spike far beyond anything the threshold allows.
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  const std::size_t downgrades = opt.flatten_peak(10, schedule_, trackers_);
  EXPECT_GE(downgrades, 3u);
  EXPECT_LE(schedule_.memory_at(10), 330.0);
}

TEST_F(GlobalOptimizerTest, NoRatchetAfterFlattening) {
  // The demand-history property: once a spike has been seen (and
  // flattened), an identical spike the next minute is no longer a peak —
  // the prior tracks demand, not the flattened level.
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 0, 0);
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  ASSERT_GT(opt.flatten_peak(10, schedule_, trackers_), 0u);

  schedule_.set(0, 11, 1);
  schedule_.set(1, 11, 1);  // same 1400 MB demand again
  EXPECT_EQ(opt.flatten_peak(11, schedule_, trackers_), 0u);
  EXPECT_EQ(schedule_.variant_at(0, 11), 1);
  EXPECT_EQ(schedule_.variant_at(1, 11), 1);
}

TEST_F(GlobalOptimizerTest, DowngradeAffectsRestOfWindow) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 1, 0);
  schedule_.set(0, 10, 1);
  schedule_.fill(1, 10, 20, 1);
  opt.flatten_peak(10, schedule_, trackers_);
  for (trace::Minute m = 10; m < 20; ++m) {
    EXPECT_EQ(schedule_.variant_at(1, m), 0) << "minute " << m;
  }
}

TEST_F(GlobalOptimizerTest, DemandHistoryRecordsPreFlattenMemory) {
  GlobalOptimizer opt(2, config_with_threshold(0.10));
  warm(opt, 0, 10, 0, 0);
  schedule_.set(0, 10, 1);
  schedule_.set(1, 10, 1);
  opt.flatten_peak(10, schedule_, trackers_);
  EXPECT_DOUBLE_EQ(opt.demand_history().memory_at(10), 1400.0);
  EXPECT_DOUBLE_EQ(opt.demand_history().memory_at(5), 500.0);
  EXPECT_EQ(opt.demand_history().now(), 11);
}

TEST_F(GlobalOptimizerTest, ScoreComponentsInRange) {
  trackers_[0].record(0);
  trackers_[0].record(3);
  trackers_[0].record(6);
  GlobalOptimizer opt(2, GlobalOptimizer::Config{});
  for (std::size_t v = 0; v < 2; ++v) {
    // The components flatten_peak caches for a kept model (Pr preset).
    const UtilityComponents u{deployment_.family_of(0).accuracy_improvement(v), 0.5,
                              opt.invocation_probability(0, 7, trackers_)};
    EXPECT_GE(u.accuracy_improvement, 0.0);
    EXPECT_LE(u.accuracy_improvement, 1.0);
    EXPECT_GE(u.invocation_probability, 0.0);
    EXPECT_LE(u.invocation_probability, 1.0);
    EXPECT_DOUBLE_EQ(u.priority, 0.5);
    EXPECT_GE(u.value(), 0.0);
    EXPECT_LE(u.value(), 3.0);
  }
}

TEST_F(GlobalOptimizerTest, IpZeroOutsideKeepAliveWindow) {
  trackers_[0].record(0);
  GlobalOptimizer opt(2, GlobalOptimizer::Config{});
  // 15 minutes after the last invocation: beyond the 10-minute window.
  EXPECT_DOUBLE_EQ(opt.invocation_probability(0, 15, trackers_), 0.0);
}

TEST(UtilityComponents, ValueIsSumOfComponents) {
  UtilityComponents u;
  u.accuracy_improvement = 0.2;
  u.priority = 0.3;
  u.invocation_probability = 0.4;
  EXPECT_DOUBLE_EQ(u.value(), 0.9);
}

}  // namespace
}  // namespace pulse::core
