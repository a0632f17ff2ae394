#pragma once
// The benchmark's three workloads: input generation (run before the
// measured process starts) and one measured pass over generated inputs.
// README.md explains why each workload exists and what every metric means.

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

enum class Workload { kBatchPulse, kServeIceBreaker, kClusterTenants };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload workload);

/// Size of a generated input. For cluster-tenants `functions` is the base
/// trace; the composed cluster trace has four tenants of it.
struct InputSize {
  std::size_t functions = 0;
  pulse::trace::Minute days = 0;
};

/// The size every benchmark run uses (tests pass smaller ones).
[[nodiscard]] InputSize benchmark_size(Workload workload);

/// Writes the inputs of `workload` at `seed` into `dir`: Azure 2019-format
/// day CSVs or line-protocol text, plus `bench.cfg` holding the run
/// parameters and the generated trace's counts for the correctness checks.
/// Deterministic in (workload, seed, size).
void write_inputs(Workload workload, std::uint64_t seed, InputSize size,
                  const std::filesystem::path& dir);

/// The result of one measured pass.
struct Sample {
  /// Benchmark metrics by name: the end-to-end ones for an untraced pass,
  /// the per-layer ones for a traced pass.
  std::map<std::string, double> metrics;
  /// Simulated outcomes. Every pass over the same inputs, traced or not,
  /// must reproduce them exactly.
  std::map<std::string, double> outcome;
  /// Output checks that failed, one line each.
  std::vector<std::string> failures;
  /// Timed operations: minutes closed (serve: events ingested).
  std::uint64_t operations = 0;
  /// Operations that failed: dropped or malformed serve events.
  std::uint64_t failed_operations = 0;
  /// Host seconds of the timed phase.
  double timed_s = 0.0;
};

/// Runs one pass of the workload whose inputs write_inputs put in `dir`.
/// `traced` wraps the policy in the timing decorator and times every layer
/// call; otherwise only the end-to-end quantities are timed.
[[nodiscard]] Sample run_workload(const std::filesystem::path& dir, bool traced);

/// serve-icebreaker only: feeds the reduced-size check stream through an
/// OnlineServer and compares its RunResult with SimulationEngine::run on
/// the same trace, deployment and policy config. Returns the mismatches.
[[nodiscard]] std::vector<std::string> check_serve_matches_batch(
    const std::filesystem::path& dir);

}  // namespace perfbench
