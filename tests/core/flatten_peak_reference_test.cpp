// Differential test: GlobalOptimizer::flatten_peak against the round-by-round
// Algorithm 2 it replaced. The reference below renormalizes every priority,
// rescores every kept model (a fresh Ip each time) and re-sums the minute's
// memory on every round; the optimizer caches Ip/Ai per peak minute, rescores
// incrementally and tests the peak on the schedule's exact aggregate. Over
// randomized zoos, deployments, weights, trackers and schedules the two must
// agree bit for bit after every minute: return value, kDowngrade sequence,
// schedule grid and priority counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/global_optimizer.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "util/rng.hpp"

namespace pulse::core {
namespace {

/// Coverage tallies over a whole sweep, so the test can prove the
/// interesting branches were actually exercised.
struct Coverage {
  std::uint64_t downgrades = 0;
  std::uint64_t lo_moves_mid_minute = 0;  // Eq. 1 minimum rose with rounds left
  std::uint64_t hi_moves_mid_minute = 0;  // Eq. 1 maximum rose with rounds left
  std::uint64_t tied_rounds = 0;          // the minimum Uv held by >= 2 models
  std::uint64_t inexact_runs = 0;         // schedules off the exact fast path
};

/// Algorithm 2 as first implemented, kept here as the oracle.
class ReferenceOptimizer {
 public:
  ReferenceOptimizer(std::size_t model_count, GlobalOptimizer::Config config)
      : config_(config), detector_(config.peak), priority_(model_count) {}

  std::size_t flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule,
                           const std::vector<InterArrivalTracker>& trackers,
                           obs::TraceSink& sink, Coverage& cov) {
    while (demand_.now() < t) demand_.push(0.0);
    const double prior = detector_.prior_memory(demand_, t);
    demand_.push(schedule.memory_at(t));
    std::size_t downgrades = 0;
    bool lo_moved = false;
    bool hi_moved = false;
    while (detector_.is_peak(schedule.memory_at(t), prior)) {
      const auto kept = schedule.kept_alive_at(t);
      if (kept.empty()) break;
      cov.lo_moves_mid_minute += lo_moved ? 1 : 0;
      cov.hi_moves_mid_minute += hi_moved ? 1 : 0;

      const std::vector<double> pr = priority_.normalized();
      std::size_t worst_idx = 0;
      double worst_uv = std::numeric_limits<double>::infinity();
      std::size_t ties = 0;
      for (std::size_t i = 0; i < kept.size(); ++i) {
        const auto [f, variant] = kept[i];
        const double uv = score(f, variant, t, schedule.deployment(), pr, trackers);
        if (uv < worst_uv) {
          worst_uv = uv;
          worst_idx = i;
          ties = 1;
        } else if (uv == worst_uv) {
          ++ties;
        }
      }
      cov.tied_rounds += ties >= 2 ? 1 : 0;

      const auto [lo_before, hi_before] = count_range();
      const trace::FunctionId worst_f = kept[worst_idx].first;
      const auto prev = schedule.downgrade_from(worst_f, t);
      if (!prev) break;
      priority_.record_downgrade(worst_f);
      const auto [lo_after, hi_after] = count_range();
      lo_moved = lo_after != lo_before;
      hi_moved = hi_after != hi_before;
      ++downgrades;
      sink.record({obs::EventType::kDowngrade, t, worst_f, *prev,
                   static_cast<double>(*prev - 1), "flatten_peak"});
    }
    cov.downgrades += downgrades;
    return downgrades;
  }

  [[nodiscard]] const PriorityStructure& priority() const noexcept { return priority_; }

 private:
  double score(trace::FunctionId f, std::size_t variant, trace::Minute t,
               const sim::Deployment& deployment, const std::vector<double>& pr,
               const std::vector<InterArrivalTracker>& trackers) const {
    UtilityComponents u;
    u.accuracy_improvement = deployment.family_of(f).accuracy_improvement(variant);
    u.priority = pr.at(f);
    const auto& tracker = trackers.at(f);
    if (const auto last = tracker.last_invocation()) {
      const trace::Minute offset = t - *last;
      if (offset < config_.keepalive_window) {
        u.invocation_probability = tracker.probability_within(
            static_cast<std::size_t>(offset + 1),
            static_cast<std::size_t>(config_.keepalive_window), t);
      }
    }
    return u.value(config_.weights);
  }

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> count_range() const {
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (std::size_t f = 0; f < priority_.model_count(); ++f) {
      lo = std::min(lo, priority_.downgrade_count(f));
      hi = std::max(hi, priority_.downgrade_count(f));
    }
    return {lo, hi};
  }

  GlobalOptimizer::Config config_;
  PeakDetector detector_;
  PriorityStructure priority_;
  DemandHistory demand_;
};

/// One randomized scenario: a zoo, a deployment, optimizer settings and a
/// stream of per-minute schedule writes and invocations.
struct Scenario {
  models::ModelZoo zoo;
  sim::Deployment deployment;
  GlobalOptimizer::Config config;
  InterArrivalTracker::Config tracker_config;
  std::size_t functions = 0;
  trace::Minute duration = 0;
};

double pick(util::Pcg32& rng, std::initializer_list<double> values) {
  const auto i = rng.bounded(static_cast<std::uint32_t>(values.size()));
  return *(values.begin() + i);
}

Scenario make_scenario(std::uint64_t seed, Coverage& cov) {
  util::Pcg32 rng(seed, 7);
  Scenario s;
  s.functions = 1 + rng.bounded(300);
  s.duration = 40;

  // Memory regimes: integer MB (exact ties against the limit are likely),
  // arbitrary doubles, and sub-2^-8-MB non-dyadic sizes that take the
  // schedule off its exact fixed-point path.
  const std::uint32_t memory_mode = rng.bounded(4);
  if (memory_mode == 3) ++cov.inexact_runs;
  // Accuracy ladders from a tiny set force equal Ai across families (and
  // Ai == 0 between equal-accuracy variants).
  const bool coarse_accuracy = rng.bernoulli(0.5);
  const std::uint32_t families = 1 + rng.bounded(6);
  for (std::uint32_t k = 0; k < families; ++k) {
    const std::uint32_t variants = 1 + rng.bounded(4);
    std::vector<double> accuracy(variants);
    for (double& a : accuracy) {
      a = coarse_accuracy ? pick(rng, {50.0, 70.0, 90.0}) : rng.uniform(10.0, 99.0);
    }
    std::sort(accuracy.begin(), accuracy.end());
    std::vector<models::ModelVariant> vs;
    double memory = 0.0;
    for (std::uint32_t v = 0; v < variants; ++v) {
      switch (memory_mode) {
        case 0: memory += static_cast<double>(100 + rng.bounded(900)); break;
        case 1: memory += static_cast<double>(1 + rng.bounded(4)) * 256.0; break;
        case 2: memory += rng.uniform(50.0, 1500.0); break;
        default: memory += rng.uniform(0.001, 0.0035); break;
      }
      vs.push_back({"v" + std::to_string(v), 1.0, 2.0, accuracy[v], memory});
    }
    s.zoo.add_family(models::ModelFamily("fam" + std::to_string(k), "t", "d", vs));
  }
  s.deployment = rng.bernoulli(0.5) ? sim::Deployment::random(s.zoo, s.functions, rng)
                                    : sim::Deployment::round_robin(s.zoo, s.functions);

  s.config.peak.memory_threshold = pick(rng, {0.0, 0.05, 0.10, 0.25});
  s.config.peak.local_window = static_cast<trace::Minute>(pick(rng, {2.0, 4.0, 8.0, 60.0}));
  s.config.keepalive_window = static_cast<trace::Minute>(pick(rng, {1.0, 5.0, 10.0}));
  auto weight = [&rng] { return pick(rng, {0.0, 1.0, 1.0, rng.uniform(0.0, 2.0)}); };
  s.config.weights = rng.bernoulli(0.1) ? UtilityWeights{0.0, 0.0, 0.0}
                                        : UtilityWeights{weight(), weight(), weight()};
  s.tracker_config.local_window = static_cast<trace::Minute>(pick(rng, {5.0, 10.0, 60.0}));
  return s;
}

/// Runs both optimizers side by side over the scenario, asserting equality
/// after every minute. Returns false (after recording gtest failures) on the
/// first divergence.
bool run_differential(std::uint64_t seed, Coverage& cov) {
  Scenario s = make_scenario(seed, cov);
  util::Pcg32 rng(seed, 11);
  const std::size_t n = s.functions;

  sim::KeepAliveSchedule fast_schedule(s.deployment, s.duration);
  sim::KeepAliveSchedule ref_schedule(s.deployment, s.duration);
  std::vector<InterArrivalTracker> trackers(n, InterArrivalTracker(s.tracker_config));

  obs::RingBufferSink fast_sink(1 << 16);
  obs::RingBufferSink ref_sink(1 << 16);
  obs::Observer observer;
  observer.sink = &fast_sink;
  GlobalOptimizer fast(n, s.config);
  fast.set_observer(&observer);
  ReferenceOptimizer ref(n, s.config);

  // Per-function invocation rates; some functions are never invoked (Ip 0).
  std::vector<double> rate(n);
  for (double& r : rate) r = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.05, 0.9);

  for (trace::Minute t = 0; t < s.duration; ++t) {
    for (std::size_t f = 0; f < n; ++f) {
      if (rate[f] > 0.0 && rng.bernoulli(rate[f])) trackers[f].record(t);
    }
    // Schedule writes: keep-alive stretches of random variants, with spike
    // minutes that lift many functions to their highest variant at once.
    const bool spike = t >= 3 && rng.bernoulli(0.2);
    for (std::size_t f = 0; f < n; ++f) {
      const auto top = static_cast<int>(s.deployment.family_of(f).variant_count()) - 1;
      int variant = sim::kNoVariant;
      if (spike && rng.bernoulli(0.7)) {
        variant = top;
      } else if (rng.bernoulli(0.4)) {
        variant = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(top + 1)));
      } else if (!rng.bernoulli(0.3)) {
        continue;  // leave whatever earlier stretches scheduled
      }
      const trace::Minute len = 1 + rng.bounded(10);
      fast_schedule.fill(f, t, t + len, variant);
      ref_schedule.fill(f, t, t + len, variant);
    }

    const std::size_t got = fast.flatten_peak(t, fast_schedule, trackers);
    const std::size_t want = ref.flatten_peak(t, ref_schedule, trackers, ref_sink, cov);
    EXPECT_EQ(got, want) << "minute " << t;

    const auto fast_events = fast_sink.events();
    const auto ref_events = ref_sink.events();
    EXPECT_EQ(fast_events.size(), ref_events.size()) << "minute " << t;
    for (std::size_t i = 0; i < std::min(fast_events.size(), ref_events.size()); ++i) {
      const auto& a = fast_events[i];
      const auto& b = ref_events[i];
      EXPECT_TRUE(a.type == b.type && a.minute == b.minute && a.function == b.function &&
                  a.variant == b.variant && a.value == b.value &&
                  std::strcmp(a.detail, b.detail) == 0)
          << "minute " << t << " event " << i << ": f " << a.function << " vs " << b.function;
    }

    for (trace::Minute m = 0; m < s.duration; ++m) {
      for (std::size_t f = 0; f < n; ++f) {
        if (fast_schedule.variant_at(f, m) != ref_schedule.variant_at(f, m)) {
          ADD_FAILURE() << "minute " << t << ": grid differs at f " << f << ", m " << m;
          return false;
        }
      }
    }
    for (std::size_t f = 0; f < n; ++f) {
      if (fast.priority().downgrade_count(f) != ref.priority().downgrade_count(f)) {
        ADD_FAILURE() << "minute " << t << ": priority count differs at f " << f;
        return false;
      }
    }
    if (::testing::Test::HasFailure()) return false;
  }
  return true;
}

TEST(FlattenPeakReference, RandomizedScenariosMatchBitForBit) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (!run_differential(seed, cov)) break;
  }
  // The sweep must actually reach the branches it exists to check.
  EXPECT_GT(cov.downgrades, 10'000u);
  EXPECT_GT(cov.lo_moves_mid_minute, 0u);
  EXPECT_GT(cov.hi_moves_mid_minute, 0u);
  EXPECT_GT(cov.tied_rounds, 0u);
  EXPECT_GT(cov.inexact_runs, 0u);
}

/// Identical families, no invocation history and equal counts: every round
/// is an exact Uv tie, broken toward the lowest function id. Each function
/// reaches the minimum count in turn, so Eq. 1's minimum rises mid-minute.
TEST(FlattenPeakReference, EveryFunctionReachesTheMinimumMidMinute) {
  models::ModelZoo zoo;
  zoo.add_family(models::ModelFamily(
      "A", "t", "d",
      {models::ModelVariant{"lo", 1.0, 2.0, 60.0, 100.0},
       models::ModelVariant{"mid", 1.0, 2.0, 70.0, 200.0},
       models::ModelVariant{"hi", 1.0, 2.0, 80.0, 300.0}}));
  const auto deployment = sim::Deployment::round_robin(zoo, 4);
  sim::KeepAliveSchedule fast_schedule(deployment, 8);
  sim::KeepAliveSchedule ref_schedule(deployment, 8);
  const std::vector<InterArrivalTracker> trackers(4);
  GlobalOptimizer::Config config;
  config.peak.memory_threshold = 0.0;
  config.peak.local_window = 2;

  obs::RingBufferSink fast_sink;
  obs::RingBufferSink ref_sink;
  obs::Observer observer;
  observer.sink = &fast_sink;
  GlobalOptimizer fast(4, config);
  fast.set_observer(&observer);
  ReferenceOptimizer ref(4, config);
  Coverage cov;

  for (trace::Minute t = 0; t < 8; ++t) {
    // Steady 400 MB, then a jump to 1200 MB at minute 4: eight downgrades
    // bring it back, two per function.
    const int variant = t == 4 ? 2 : 0;
    for (trace::FunctionId f = 0; f < 4; ++f) {
      fast_schedule.set(f, t, variant);
      ref_schedule.set(f, t, variant);
    }
    ASSERT_EQ(fast.flatten_peak(t, fast_schedule, trackers),
              ref.flatten_peak(t, ref_schedule, trackers, ref_sink, cov));
  }
  EXPECT_EQ(cov.downgrades, 8u);
  EXPECT_GT(cov.lo_moves_mid_minute, 0u);
  EXPECT_GT(cov.hi_moves_mid_minute, 0u);
  const auto a = fast_sink.events();
  const auto b = ref_sink.events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].function, b[i].function) << "event " << i;
    EXPECT_EQ(a[i].variant, b[i].variant) << "event " << i;
  }
  for (trace::FunctionId f = 0; f < 4; ++f) {
    EXPECT_EQ(fast.priority().downgrade_count(f), 2u);
    EXPECT_EQ(fast_schedule.variant_at(f, 4), 0);
  }
}

TEST(FlattenPeakReference, NonFiniteWeightsAreRejected) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const UtilityWeights w : {UtilityWeights{kNan, 1.0, 1.0}, UtilityWeights{1.0, kInf, 1.0},
                                 UtilityWeights{1.0, 1.0, -kInf}}) {
    GlobalOptimizer::Config config;
    config.weights = w;
    EXPECT_THROW(GlobalOptimizer(3, config), std::invalid_argument);
  }
  // Zeroed components (the utility ablation) stay valid.
  GlobalOptimizer::Config zeroed;
  zeroed.weights = UtilityWeights{0.0, 0.0, 0.0};
  EXPECT_NO_THROW(GlobalOptimizer(3, zeroed));
}

}  // namespace
}  // namespace pulse::core
