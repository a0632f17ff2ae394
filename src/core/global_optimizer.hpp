#pragma once
// Cross-function optimization — Algorithm 2 of the paper.
//
// When the peak detector flags a minute, the optimizer repeatedly scores
// every kept-alive model with the utility value Uv = Ai + Pr + Ip and
// downgrades the lowest-utility model by one variant (the lowest variant is
// dropped entirely, i.e. the next invocation cold-starts), until the peak
// is flattened. Every downgrade is tallied in the priority structure so the
// burden rotates across models instead of repeatedly hitting the same one.
//
// Within one peak minute, t and the trackers are fixed, so each kept model's
// Ip is computed once and its Ai once per variant; a round rescores only the
// downgraded model, or every kept model from cached components when the
// priority min/max moved. The peak test reads the schedule's exact memory
// aggregate. Rounds are O(K) instead of O(F + K*W), with results bitwise
// equal to rescoring everything every round (docs/PERFORMANCE.md).

#include <cstdint>
#include <vector>

#include "core/interarrival.hpp"
#include "core/peak_detector.hpp"
#include "core/priority.hpp"
#include "core/utility.hpp"
#include "obs/observer.hpp"
#include "sim/schedule.hpp"
#include "trace/analysis.hpp"

namespace pulse::core {

/// Per-minute record of *demand* keep-alive memory — what the
/// function-centric optimizer scheduled before any peak flattening. The
/// peak detector's prior must come from this series, not from the
/// post-flatten memory the platform actually held: comparing against the
/// flattened series would classify any recovery above the flattened level
/// as a new peak and ratchet keep-alive memory toward zero.
class DemandHistory final : public sim::MemoryHistory {
 public:
  void push(double memory_mb) { values_.push_back(memory_mb); }

  /// Pre-sizes the backing store (one slot per simulated minute) so push()
  /// never reallocates during a run — required by the serve-mode
  /// allocation-free hot-path discipline.
  void reserve(std::size_t minutes) { values_.reserve(minutes); }

  [[nodiscard]] double memory_at(trace::Minute t) const override {
    if (t < 0 || static_cast<std::size_t>(t) >= values_.size()) return 0.0;
    return values_[static_cast<std::size_t>(t)];
  }

  [[nodiscard]] trace::Minute now() const override {
    return static_cast<trace::Minute>(values_.size());
  }

 private:
  std::vector<double> values_;
};

class GlobalOptimizer {
 public:
  struct Config {
    PeakDetector::Config peak{};
    /// Length of the keep-alive window Ip is evaluated over.
    trace::Minute keepalive_window = trace::kKeepAliveWindow;
    /// Utility component weights (equal by default, per the paper).
    UtilityWeights weights{};
  };

  explicit GlobalOptimizer(std::size_t model_count);  // default Config
  /// Throws std::invalid_argument when a utility weight is NaN or infinite
  /// (every Uv would be NaN and the argmin would silently pick kept[0]).
  GlobalOptimizer(std::size_t model_count, Config config);

  /// Runs Algorithm 2 for minute t: records the demand memory of minute t,
  /// and if t is a peak (demand vs. the demand history's prior), downgrades
  /// lowest-Uv models (mutating `schedule` from minute t onward) until the
  /// peak is flattened or nothing is left to downgrade. Must be called once
  /// per minute in order. Returns the number of downgrades performed for
  /// this minute.
  std::size_t flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule,
                           const std::vector<InterArrivalTracker>& trackers);

  /// Pre-sizes the demand history for a run of `minutes` minutes, keeping
  /// flatten_peak's bookkeeping off the allocator.
  void reserve_horizon(std::size_t minutes) { demand_.reserve(minutes); }

  /// Ip: probability f is invoked during the rest of its keep-alive window
  /// at minute t (0 once the window since its last invocation has passed).
  [[nodiscard]] double invocation_probability(
      trace::FunctionId f, trace::Minute t,
      const std::vector<InterArrivalTracker>& trackers) const;

  /// Pre-resolved optimizer.* handle bundle (metrics_registry.hpp): bound
  /// once in set_observer, bumped on the flatten path, flushed at the
  /// flatten_peak minute boundary — no name lookup per peak minute.
  struct Metrics {
    obs::CounterHandle peak_minutes;
    obs::CounterHandle downgrades;
  };

  /// Attaches the observability context (nullptr = disabled). The owning
  /// policy forwards what the engine handed it; the optimizer then emits a
  /// kDowngrade event per downgrade and keeps optimizer.* counters.
  void set_observer(const obs::Observer* observer);

  [[nodiscard]] std::uint64_t total_downgrades() const noexcept {
    return priority_.total_downgrades();
  }
  [[nodiscard]] const PriorityStructure& priority() const noexcept { return priority_; }
  [[nodiscard]] const PeakDetector& detector() const noexcept { return detector_; }
  [[nodiscard]] const DemandHistory& demand_history() const noexcept { return demand_; }

 private:
  Config config_;
  PeakDetector detector_;
  PriorityStructure priority_;
  DemandHistory demand_;
  const obs::Observer* obs_ = nullptr;
  Metrics metrics_;

  /// A model kept alive at the peak minute, with its cached Uv components.
  struct KeptEntry {
    trace::FunctionId f;
    std::size_t variant;
    double ai;  // Ai of (f, variant)
    double ip;  // Ip of f at t; trackers are constant within the minute
    double uv;
  };

  void rescore(KeptEntry& e) const;

  /// Reused across peak minutes (reserved up front: allocation-free).
  std::vector<KeptEntry> kept_;
};

}  // namespace pulse::core
