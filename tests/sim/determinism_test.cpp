// Bitwise determinism safety net for hot-path refactors.
//
// (a) Golden fixtures: the engine's RunResult on pinned seeds — with and
//     without fault injection, across every policy family that touches the
//     keep-alive schedule — must match the checked-in fingerprints
//     bit-for-bit. Any change to schedule bookkeeping, summation order, or
//     RNG consumption shows up here before it can silently shift paper
//     numbers.
// (b) Thread-count invariance: run_ensemble must produce identical results
//     for 1 thread, 4 threads, and hardware concurrency.
//
// Regenerating fixtures (only when an *intentional* behaviour change is
// made): run with PULSE_PRINT_GOLDEN=1 and paste the printed table into
// golden_fixtures.inc. Never regenerate to "fix" an optimization PR — an
// optimization must reproduce the old fingerprints exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "policies/factory.hpp"
#include "policies/icebreaker.hpp"
#include "sim/engine.hpp"
#include "sim/ensemble.hpp"
#include "trace/workload.hpp"

namespace pulse::sim {
namespace {

/// FNV-1a 64-bit, fed field by field so every bit of the result counts.
class Fingerprint {
 public:
  void add_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double v) noexcept { add_u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The whole RunResult, including every recorded series, as one hash.
std::uint64_t fingerprint(const RunResult& r) {
  Fingerprint fp;
  fp.add_double(r.total_service_time_s);
  fp.add_double(r.total_keepalive_cost_usd);
  fp.add_double(r.accuracy_pct_sum);
  fp.add_u64(r.invocations);
  fp.add_u64(r.warm_starts);
  fp.add_u64(r.cold_starts);
  fp.add_u64(r.downgrades);
  fp.add_u64(r.capacity_evictions);
  fp.add_u64(r.failed_invocations);
  fp.add_u64(r.retries);
  fp.add_u64(r.timeouts);
  fp.add_u64(r.crash_evictions);
  fp.add_u64(r.degraded_minutes);
  fp.add_u64(r.guard_incidents);
  for (double v : r.keepalive_memory_mb) fp.add_double(v);
  for (double v : r.keepalive_cost_usd) fp.add_double(v);
  for (double v : r.ideal_cost_usd) fp.add_double(v);
  for (double v : r.service_time_samples) fp.add_double(v);
  for (const FunctionMetrics& m : r.per_function) {
    fp.add_u64(m.invocations);
    fp.add_u64(m.warm_starts);
    fp.add_u64(m.cold_starts);
    fp.add_double(m.service_time_s);
    fp.add_double(m.accuracy_pct_sum);
  }
  return fp.value();
}

struct GoldenCase {
  const char* policy;
  std::uint64_t seed;
  bool faults;
  /// IceBreaker rows only: forecast through the sliding DFT. One day of
  /// minutes fills the default 256-minute window, re-anchors once and runs
  /// the recurrence between anchors, so both halves of the streaming path
  /// reach the fingerprint.
  bool streaming_dft = false;
};

constexpr GoldenCase kCases[] = {
    {"pulse", 101, false},          {"pulse", 202, true},
    {"milp", 101, true},            {"wild+pulse", 202, false},
    {"icebreaker+pulse", 101, false}, {"openwhisk", 202, true},
    {"icebreaker", 101, false, true}, {"icebreaker+pulse", 202, true, true},
};

struct GoldenExpectation {
  double total_service_time_s;
  double total_keepalive_cost_usd;
  std::uint64_t invocations;
  std::uint64_t capacity_evictions;
  std::uint64_t fingerprint;
};

constexpr GoldenExpectation kExpected[] = {
#include "golden_fixtures.inc"
};

std::unique_ptr<KeepAlivePolicy> golden_policy(const GoldenCase& c) {
  if (!c.streaming_dft) return policies::make_policy(c.policy);
  policies::IceBreakerPolicy::Config icebreaker;
  icebreaker.streaming_dft = true;
  if (std::string(c.policy) == "icebreaker") {
    return std::make_unique<policies::IceBreakerPolicy>(icebreaker);
  }
  policies::IceBreakerPulsePolicy::Config config;
  config.icebreaker = icebreaker;
  return std::make_unique<policies::IceBreakerPulsePolicy>(config);
}

RunResult golden_run(const GoldenCase& c) {
  trace::WorkloadConfig wc;
  wc.function_count = 16;
  wc.duration = 1440;  // one day is enough to exercise every code path
  wc.seed = c.seed;
  const trace::Workload workload = trace::build_azure_like_workload(wc);

  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const Deployment deployment = Deployment::round_robin(zoo, wc.function_count);

  EngineConfig config;
  config.seed = c.seed * 7919 + 17;
  config.record_series = true;
  config.record_per_function = true;
  config.record_service_samples = true;
  config.bernoulli_accuracy = true;
  // Tight enough that capacity eviction fires regularly.
  config.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.35;
  if (c.faults) {
    config.faults.crash_rate = 0.02;
    config.faults.cold_start_failure_rate = 0.10;
    config.faults.slo_multiplier = 3.0;
    config.faults.memory_pressure_rate = 0.05;
    config.faults.memory_pressure_capacity_mb = deployment.peak_highest_memory_mb() * 0.25;
  }

  SimulationEngine engine(deployment, workload.trace, config);
  return engine.run(*golden_policy(c));
}

TEST(GoldenFixtures, RunResultBitwiseStable) {
  const bool regen = std::getenv("PULSE_PRINT_GOLDEN") != nullptr;
  static_assert(std::size(kCases) == std::size(kExpected));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    const GoldenCase& c = kCases[i];
    const char* const mode = c.streaming_dft ? " streaming-dft" : "";
    SCOPED_TRACE(std::string(c.policy) + " seed=" + std::to_string(c.seed) +
                 (c.faults ? " faults" : " no-faults") + mode);
    const RunResult r = golden_run(c);
    if (regen) {
      std::printf("    {%a, %a, %lluu, %lluu, 0x%016llxULL},  // %s seed=%llu %s%s\n",
                  r.total_service_time_s, r.total_keepalive_cost_usd,
                  static_cast<unsigned long long>(r.invocations),
                  static_cast<unsigned long long>(r.capacity_evictions),
                  static_cast<unsigned long long>(fingerprint(r)), c.policy,
                  static_cast<unsigned long long>(c.seed), c.faults ? "faults" : "no-faults",
                  mode);
      continue;
    }
    const GoldenExpectation& e = kExpected[i];
    // Bitwise comparison: golden doubles must match to the last ULP.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_service_time_s),
              std::bit_cast<std::uint64_t>(e.total_service_time_s));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_keepalive_cost_usd),
              std::bit_cast<std::uint64_t>(e.total_keepalive_cost_usd));
    EXPECT_EQ(r.invocations, e.invocations);
    EXPECT_EQ(r.capacity_evictions, e.capacity_evictions);
    EXPECT_EQ(fingerprint(r), e.fingerprint);
  }
}

/// Ensemble results must not depend on the thread count (CP.2: runs share
/// nothing mutable; each owns its RNG streams).
TEST(Determinism, EnsembleIdenticalAcrossThreadCounts) {
  trace::WorkloadConfig wc;
  wc.function_count = 12;
  wc.duration = 720;
  wc.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();

  EnsembleConfig config;
  config.runs = 8;
  config.seed = 33;
  config.engine.memory_capacity_mb = 2000.0;
  config.engine.faults.crash_rate = 0.01;

  const auto factory = [] { return policies::make_policy("pulse"); };

  std::vector<EnsembleResult> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
    config.threads = threads;
    results.push_back(run_ensemble(zoo, workload.trace, factory, config));
  }

  for (std::size_t k = 1; k < results.size(); ++k) {
    ASSERT_EQ(results[k].runs.size(), results[0].runs.size());
    for (std::size_t i = 0; i < results[0].runs.size(); ++i) {
      EXPECT_EQ(fingerprint(results[k].runs[i]), fingerprint(results[0].runs[i]))
          << "thread-count variant " << k << ", run " << i;
    }
  }
}

}  // namespace
}  // namespace pulse::sim
