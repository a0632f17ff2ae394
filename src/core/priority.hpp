#pragma once
// The Priority structure of §III-B: a per-model count of past downgrades,
// normalized with Equation 1 when a peak occurs. Models that have borne
// more downgrades get a higher priority value, which raises their utility
// and protects them from being downgraded yet again — the "unbiased
// downgrades" mechanism.

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace pulse::core {

class PriorityStructure {
 public:
  /// Initialized with zeros for all models "immediately after the system
  /// has started" (Algorithm 2, line 1).
  explicit PriorityStructure(std::size_t model_count);

  /// Records one downgrade of model f (Algorithm 2, line 10).
  void record_downgrade(trace::FunctionId f);

  [[nodiscard]] std::uint64_t downgrade_count(trace::FunctionId f) const;
  [[nodiscard]] std::uint64_t total_downgrades() const noexcept { return total_; }
  [[nodiscard]] std::size_t model_count() const noexcept { return counts_.size(); }

  /// Equation 1 normalization of the whole structure: the most-downgraded
  /// model maps to 1, the least to 0; all-equal counts map to all zeros.
  [[nodiscard]] std::vector<double> normalized() const;

  /// Allocation-free variant of normalized(): writes into `out` (resized).
  /// Hot loops reuse one buffer across rounds.
  void normalized_into(std::vector<double>& out) const;

  /// Normalized priority of a single model in O(1): Equation 1 against the
  /// incrementally tracked min/max, bitwise equal to normalized()[f].
  [[nodiscard]] double normalized_priority(trace::FunctionId f) const;

  /// Smallest / largest downgrade count over all models (0 when empty).
  [[nodiscard]] std::uint64_t min_count() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max_count() const noexcept { return max_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  // Counts only ever grow by one, so the minimum rises only when its last
  // holder is downgraded; the O(F) recount that follows happens at most
  // once per F downgrades on average.
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::size_t at_min_ = 0;  // models whose count equals min_
};

}  // namespace pulse::core
