// Figure 9: PULSE vs the MILP alternative.
//   (a) distribution of decision overhead / delivered service time across
//       simulation runs — MILP's branch-and-bound costs considerably more
//       than PULSE's greedy loop;
//   (b) accuracy — MILP's one-shot selection (no iterative priority
//       adaptation) favours lower-quality variants, costing accuracy.

#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "core/global_optimizer.hpp"
#include "core/interarrival.hpp"
#include "policies/factory.hpp"
#include "policies/milp.hpp"
#include "sim/ensemble.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace pulse;

sim::EnsembleResult run_with_overhead(const exp::Scenario& scenario,
                                      const std::string& policy, std::size_t runs) {
  sim::EnsembleConfig config;
  config.runs = runs;
  config.engine.measure_overhead = true;
  return sim::run_ensemble(scenario.zoo, scenario.workload.trace,
                           [&] { return policies::make_policy(policy); }, config);
}

void print_overhead_histogram(const char* label, const std::vector<double>& ratios) {
  // Log-scaled buckets over overhead/service-time, like the paper's x-axis,
  // plus an open bucket at each end so every run is counted somewhere.
  static const double kEdges[] = {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
  constexpr std::size_t kInner = std::size(kEdges) - 1;
  constexpr std::size_t kBuckets = kInner + 2;  // [0] below 1e-7, [kInner+1] at or above 1e-1
  std::size_t counts[kBuckets] = {};
  for (double r : ratios) {
    const auto upper = std::upper_bound(std::begin(kEdges), std::end(kEdges), r);
    ++counts[static_cast<std::size_t>(upper - std::begin(kEdges))];
  }
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total != ratios.size()) {
    std::fprintf(stderr, "%s: histogram counted %zu of %zu runs\n", label, total,
                 ratios.size());
    std::abort();
  }
  std::size_t max_count = 1;
  for (std::size_t c : counts) max_count = std::max(max_count, c);
  std::printf("\n%s (overhead / service time, %zu runs):\n", label, ratios.size());
  for (std::size_t b = 0; b < kBuckets; ++b) {
    char range[32];
    if (b == 0) {
      std::snprintf(range, sizeof range, "< 1e-7");
    } else if (b == kBuckets - 1) {
      std::snprintf(range, sizeof range, ">= 1e-1");
    } else {
      std::snprintf(range, sizeof range, "[1e%+d, 1e%+d)", static_cast<int>(b) - 8,
                    static_cast<int>(b) - 7);
    }
    std::printf("  %-14s %4zu |%s|\n", range, counts[b],
                util::bar(static_cast<double>(counts[b]), static_cast<double>(max_count), 30)
                    .c_str());
  }
}

policies::MilpProblem representative_instance() {
  // A peak over 12 kept-alive models with up to 3 variants each — the shape
  // MilpPolicy solves during a real peak.
  util::Pcg32 rng(7);
  policies::MilpProblem p;
  for (int i = 0; i < 12; ++i) {
    std::vector<policies::MilpOption> options;
    const std::size_t variants = 2 + rng.bounded(2);
    for (std::size_t v = 0; v < variants; ++v) {
      options.push_back(policies::MilpOption{rng.uniform(0.0, 2.0), rng.uniform(200.0, 3500.0)});
    }
    p.items.push_back(std::move(options));
  }
  p.memory_budget_mb = 9000.0;
  return p;
}

void BM_MilpSolve(benchmark::State& state) {
  const policies::MilpProblem p = representative_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policies::solve_milp(p));
  }
}
BENCHMARK(BM_MilpSolve);

void BM_PulseGreedyFlattenScale(benchmark::State& state) {
  // The greedy counterpart: score-and-downgrade over the same 12 models is
  // linear per round instead of a tree search.
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment d = sim::Deployment::round_robin(zoo, 12);
  for (auto _ : state) {
    state.PauseTiming();
    sim::KeepAliveSchedule schedule(d, 40);
    for (trace::FunctionId f = 0; f < 12; ++f) {
      schedule.fill(f, 0, 20, static_cast<int>(d.family_of(f).highest_index()));
    }
    core::GlobalOptimizer opt(12, core::GlobalOptimizer::Config{});
    std::vector<core::InterArrivalTracker> trackers(12, core::InterArrivalTracker());
    // Build a demand history with a low prior so minute 19 peaks.
    for (trace::Minute m = 0; m < 19; ++m) {
      sim::KeepAliveSchedule quiet(d, 40);
      quiet.set(0, m, 0);
      opt.flatten_peak(m, quiet, trackers);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(opt.flatten_peak(19, schedule, trackers));
  }
}
BENCHMARK(BM_PulseGreedyFlattenScale);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;
  bench::print_heading("Figure 9 — decision overhead and accuracy: MILP vs PULSE",
                       "PULSE paper, Figure 9(a) and 9(b)");
  exp::ScenarioConfig sconfig;
  sconfig.days = std::min<trace::Minute>(exp::bench_trace_days(3), 7);
  const exp::Scenario scenario = exp::make_scenario(sconfig);
  const std::size_t runs = std::max<std::size_t>(bench::default_runs() / 2, 10);
  bench::print_scenario_info(scenario, runs);

  const sim::EnsembleResult pulse = run_with_overhead(scenario, "pulse", runs);
  const sim::EnsembleResult milp = run_with_overhead(scenario, "milp", runs);

  std::vector<double> pulse_ratio;
  std::vector<double> milp_ratio;
  for (const auto& r : pulse.runs) pulse_ratio.push_back(r.overhead_over_service_time());
  for (const auto& r : milp.runs) milp_ratio.push_back(r.overhead_over_service_time());

  print_overhead_histogram("Figure 9(a) — PULSE", pulse_ratio);
  print_overhead_histogram("Figure 9(a) — MILP", milp_ratio);

  util::TextTable table({"Technique", "Median overhead/svc-time", "Accuracy (%)"});
  table.add_row({"PULSE", util::fmt(util::percentile(pulse_ratio, 50) * 1e6, 2) + "e-6",
                 util::fmt(pulse.mean_accuracy_pct())});
  table.add_row({"MILP", util::fmt(util::percentile(milp_ratio, 50) * 1e6, 2) + "e-6",
                 util::fmt(milp.mean_accuracy_pct())});
  std::printf("\nFigure 9(b):\n%s", table.render().c_str());
  std::printf(
      "\nExpected shape (paper): MILP's overhead distribution sits at larger\n"
      "overhead/service-time ratios than PULSE's, and its accuracy is lower\n"
      "than PULSE's because one-shot selection favours low-quality variants.\n");

  return bench::run_microbenchmarks(argc, argv);
}
