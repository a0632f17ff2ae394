// The benchmark's own tests: the timing decorator must leave every
// simulated result bit-identical, and each workload's measured pass must
// pass its output checks and emit well-formed metric names.

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <memory>
#include <regex>
#include <string>

#include "cluster/cluster_engine.hpp"
#include "models/zoo.hpp"
#include "obs/metrics_registry.hpp"
#include "policies/factory.hpp"
#include "policies/icebreaker.hpp"
#include "sim/deployment.hpp"
#include "sim/engine.hpp"
#include "timed_policy.hpp"
#include "trace/workload.hpp"
#include "workloads.hpp"

namespace {

using perfbench::TimedPolicy;
namespace sim = pulse::sim;

struct Fixture {
  pulse::trace::Workload workload;
  pulse::models::ModelZoo zoo;
  sim::Deployment deployment;
};

Fixture make_fixture(std::size_t functions, pulse::trace::Minute duration) {
  pulse::trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = 17;
  wc.global_peaks = 3;
  Fixture fx{pulse::trace::build_azure_like_workload(wc), pulse::models::ModelZoo::builtin(), {}};
  fx.deployment = sim::Deployment::round_robin(fx.zoo, functions);
  return fx;
}

void expect_same(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.total_service_time_s, b.total_service_time_s);
  EXPECT_EQ(a.total_keepalive_cost_usd, b.total_keepalive_cost_usd);
  EXPECT_EQ(a.accuracy_pct_sum, b.accuracy_pct_sum);
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.downgrades, b.downgrades);
  EXPECT_EQ(a.fault_counters(), b.fault_counters());
  EXPECT_EQ(a.keepalive_memory_mb, b.keepalive_memory_mb);
  EXPECT_EQ(a.keepalive_cost_usd, b.keepalive_cost_usd);
  EXPECT_EQ(a.service_time_samples, b.service_time_samples);
  ASSERT_EQ(a.per_function.size(), b.per_function.size());
  for (std::size_t f = 0; f < a.per_function.size(); ++f) {
    EXPECT_EQ(a.per_function[f].service_time_s, b.per_function[f].service_time_s);
    EXPECT_EQ(a.per_function[f].cold_starts, b.per_function[f].cold_starts);
  }
}

std::unique_ptr<sim::KeepAlivePolicy> make(const std::string& name) {
  if (name == "icebreaker-streaming") {
    pulse::policies::IceBreakerPolicy::Config config;
    config.streaming_dft = true;
    return std::make_unique<pulse::policies::IceBreakerPolicy>(config);
  }
  return pulse::policies::make_policy(name);
}

class Transparency : public ::testing::TestWithParam<std::string> {};

TEST_P(Transparency, WrappedRunIsBitIdentical) {
  const Fixture fx = make_fixture(40, 2 * pulse::trace::kMinutesPerDay);
  sim::EngineConfig config;
  config.seed = 5;
  config.record_series = true;
  config.record_per_function = true;
  config.record_service_samples = true;
  // Capacity below peak and faults on, so eviction and retry paths run.
  config.memory_capacity_mb = 0.5 * fx.deployment.peak_highest_memory_mb();
  config.faults.crash_rate = 0.001;
  config.faults.cold_start_failure_rate = 0.05;
  config.faults.slo_multiplier = 3.0;
  const sim::SimulationEngine engine(fx.deployment, fx.workload.trace, config);

  auto plain = make(GetParam());
  const sim::RunResult reference = sim::SimulationEngine(engine).run(*plain);
  for (const auto mode : {TimedPolicy::Mode::kFull, TimedPolicy::Mode::kMinuteClock}) {
    perfbench::PolicyTimes times;
    TimedPolicy wrapped(make(GetParam()), times, mode, pulse::trace::kKeepAliveWindow);
    const sim::RunResult result = sim::SimulationEngine(engine).run(wrapped);
    expect_same(reference, result);
    EXPECT_EQ(wrapped.name(), plain->name());
    EXPECT_EQ(times.marks.size(), static_cast<std::size_t>(fx.workload.trace.duration()));
    if (mode == TimedPolicy::Mode::kFull) {
      EXPECT_GT(times.on_invocation_calls, 0u);
      EXPECT_EQ(times.flatten_minutes + times.refresh_ticks + times.other_ticks,
                static_cast<std::uint64_t>(fx.workload.trace.duration()));
    }
  }
  if (GetParam() == "pulse") {
    EXPECT_GT(reference.downgrades, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, Transparency,
                         ::testing::Values("pulse", "icebreaker-streaming", "openwhisk"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// A sharded run with shard crashes: checkpoint, restore (after a replay),
// attach_observer (a registry is attached and detached around replays) and
// incident_count (guarded wrapper) all have to pass through the decorator.
TEST(TransparencyCluster, ShardCrashRunIsBitIdentical) {
  const Fixture fx = make_fixture(48, 720);
  const auto run = [&](bool wrap) {
    pulse::obs::MetricsRegistry registry;
    pulse::cluster::ClusterConfig cc;
    cc.shards = 4;
    cc.threads = 2;
    cc.engine.seed = 99;
    cc.engine.hashed_rng = true;
    cc.engine.memory_capacity_mb = 0.35 * fx.deployment.peak_highest_memory_mb();
    cc.engine.observer.metrics = &registry;
    cc.market.rebalance_interval = 30;
    cc.shard_faults.crash_rate = 0.004;
    cc.shard_faults.recovery_epochs = 2;
    pulse::cluster::ClusterEngine cluster(fx.deployment, fx.workload.trace, cc);
    std::deque<perfbench::PolicyTimes> times;
    return cluster.run([&]() -> std::unique_ptr<sim::KeepAlivePolicy> {
      auto policy = pulse::policies::make_policy("guarded:pulse");
      if (!wrap) return policy;
      return std::make_unique<TimedPolicy>(std::move(policy), times.emplace_back(),
                                           TimedPolicy::Mode::kFull);
    });
  };
  const pulse::cluster::ClusterResult plain = run(false);
  const pulse::cluster::ClusterResult wrapped = run(true);
  ASSERT_GT(plain.shard_crashes, 0u) << "fixture should crash a shard";
  ASSERT_EQ(plain.shards.size(), wrapped.shards.size());
  for (std::size_t s = 0; s < plain.shards.size(); ++s) {
    expect_same(plain.shards[s], wrapped.shards[s]);
  }
  EXPECT_EQ(plain.shard_crashes, wrapped.shard_crashes);
  EXPECT_EQ(plain.transfers, wrapped.transfers);
  EXPECT_EQ(plain.total_quota_mb, wrapped.total_quota_mb);
  EXPECT_EQ(plain.final_quota_mb, wrapped.final_quota_mb);
  EXPECT_EQ(plain.metrics.counters, wrapped.metrics.counters);
  EXPECT_EQ(plain.metrics.gauges, wrapped.metrics.gauges);
}

// Each workload end to end at a tiny size: generated inputs, an untraced
// and a traced pass, the output checks, and the metric names.
class WorkloadPass : public ::testing::TestWithParam<perfbench::Workload> {};

TEST_P(WorkloadPass, ChecksPassAndNamesAreWellFormed) {
  const perfbench::Workload workload = GetParam();
  // Inside the working directory (the build tree under ctest).
  const std::filesystem::path dir =
      std::filesystem::current_path() /
      ("perfbench_test_" + std::string(perfbench::workload_name(workload)));
  std::filesystem::remove_all(dir);
  perfbench::write_inputs(workload, 3, {24, 1}, dir);

  const perfbench::Sample untraced = perfbench::run_workload(dir, false);
  const perfbench::Sample traced = perfbench::run_workload(dir, true);
  EXPECT_TRUE(untraced.failures.empty()) << untraced.failures.front();
  EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
  EXPECT_EQ(untraced.outcome, traced.outcome);
  EXPECT_GT(untraced.operations, 0u);
  EXPECT_EQ(untraced.failed_operations, 0u);
  if (workload == perfbench::Workload::kServeIceBreaker) {
    const auto mismatches = perfbench::check_serve_matches_batch(dir);
    EXPECT_TRUE(mismatches.empty()) << mismatches.front();
  }

  const std::regex name_pattern("[A-Za-z0-9_.-]+");
  for (const perfbench::Sample* s : {&untraced, &traced}) {
    for (const auto& [name, value] : s->metrics) {
      EXPECT_TRUE(std::regex_match(name, name_pattern)) << name;
    }
  }
  for (const char* name : {"setup_s", "fn_min_per_s", "minute_p50_us", "minute_p99_us",
                           "keepalive_cost_usd", "mean_service_ms", "accuracy_pct",
                           "warm_start_pct", "served_pct"}) {
    EXPECT_EQ(untraced.metrics.count(name), 1u) << name;
    EXPECT_GT(untraced.metrics.at(name), 0.0) << name;
  }
  EXPECT_EQ(traced.metrics.count("unattributed_pct"), 1u);
  EXPECT_EQ(traced.metrics.count("policy.on_invocation_ns"), 1u);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadPass,
                         ::testing::Values(perfbench::Workload::kBatchPulse,
                                           perfbench::Workload::kServeIceBreaker,
                                           perfbench::Workload::kClusterTenants),
                         [](const auto& info) {
                           std::string name(perfbench::workload_name(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
