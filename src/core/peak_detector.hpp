#pragma once
// Keep-alive memory peak detection — Algorithm 1 of the paper.
//
// A minute t is a peak when its keep-alive memory exceeds the *prior*
// keep-alive memory by more than the keep-alive memory threshold KM_T:
//
//   is_peak  <=>  C_KaM > P_KaM + KM_T * P_KaM
//
// The subtlety Algorithm 1 handles is choosing P_KaM at the first minute of
// a keep-alive period (i.e. right after a stretch of inactivity): diurnal /
// nocturnal / intermittent functions would otherwise compare against a
// zero prior and cold-start en masse. The rules:
//
//   * continuous activity (previous minute had keep-alive memory):
//       P_KaM = keep-alive memory of minute t-1;
//   * first minute after inactivity, system operational for >= 2x the local
//     window and the window average is non-zero:
//       P_KaM = average keep-alive memory over the local window;
//   * otherwise:
//       P_KaM = the last non-zero keep-alive memory ever recorded, or
//       +infinity when none exists (never a peak right at system start).

#include <limits>

#include "sim/policy.hpp"
#include "trace/trace.hpp"

namespace pulse::core {

class PeakDetector {
 public:
  struct Config {
    /// KM_T: tunable keep-alive memory threshold (paper sweeps 5%/10%/15%
    /// in Figure 11; 10% is the default M2 setting).
    double memory_threshold = 0.10;
    /// Sliding local window duration, minutes.
    trace::Minute local_window = 60;
  };

  PeakDetector();  // default Config
  explicit PeakDetector(Config config) : config_(config) {}

  /// The ISPEAK predicate of Algorithm 1.
  [[nodiscard]] bool is_peak(double current_memory, double prior_memory) const noexcept {
    return current_memory > peak_limit(prior_memory);
  }

  /// P_KaM + KM_T * P_KaM: the memory a minute must exceed to be a peak.
  /// is_peak is defined through this one expression, so a caller testing
  /// `memory > peak_limit(prior)` some other way (e.g. an exact schedule
  /// aggregate) decides exactly what is_peak would.
  [[nodiscard]] double peak_limit(double prior_memory) const noexcept {
    return prior_memory + config_.memory_threshold * prior_memory;
  }

  /// P_KaM for minute t given the recorded history (minutes < t).
  ///
  /// The last-non-zero fallback memoizes its scan position, so repeated
  /// calls over an append-only history cost O(1) amortized instead of an
  /// O(t) backward walk per call. The memo keys on the history object's
  /// address and resets when a different history (or a rolled-back one,
  /// history.now() < scanned prefix) is presented; recorded minutes are
  /// assumed immutable once written, which holds for both the engine's
  /// memory record and the optimizer's demand history.
  [[nodiscard]] double prior_memory(const sim::MemoryHistory& history,
                                    trace::Minute t) const;

  /// Convenience: full Algorithm 1 decision for minute t.
  [[nodiscard]] bool detect(double current_memory, const sim::MemoryHistory& history,
                            trace::Minute t) const {
    return is_peak(current_memory, prior_memory(history, t));
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  static constexpr double kInfiniteMemory = std::numeric_limits<double>::infinity();

 private:
  Config config_;

  // Memo for the last-non-zero fallback scan: minutes [0, memo_scanned_)
  // of *memo_history_ have been examined; memo_last_minute_ / _value_ hold
  // the most recent non-zero among them (-1 when none). Mutable because
  // prior_memory() is logically const; a detector is owned by exactly one
  // single-threaded run.
  mutable const sim::MemoryHistory* memo_history_ = nullptr;
  mutable trace::Minute memo_scanned_ = 0;
  mutable trace::Minute memo_last_minute_ = -1;
  mutable double memo_last_value_ = 0.0;
};

inline PeakDetector::PeakDetector() : PeakDetector(Config{}) {}

}  // namespace pulse::core
