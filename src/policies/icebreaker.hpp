#pragma once
// IceBreaker (Roy et al., ASPLOS'22) as the paper configures it: a fast
// Fourier-based forecaster predicts each function's upcoming invocation
// intensity and containers are warmed for the minutes where the predicted
// intensity crosses an activation threshold. The paper runs IceBreaker on a
// single node type, so its heterogeneous-node utility function is not
// exercised. IceBreaker is model-variant-unaware: it warms the
// highest-quality variant.
//
// IceBreakerPulsePolicy is the Figure 8 integration: IceBreaker's
// "function invocation predictor, which determines the concurrency of
// subsequent periods" is preserved, and PULSE maps the predicted intensity
// to a variant choice, then applies its global peak flattening.

#include <memory>
#include <string>
#include <vector>

#include "core/global_optimizer.hpp"
#include "core/interarrival.hpp"
#include "core/variant_selector.hpp"
#include "predict/sliding_dft.hpp"
#include "sim/policy.hpp"
#include "trace/analysis.hpp"

namespace pulse::policies {

class IceBreakerPolicy : public sim::KeepAlivePolicy {
 public:
  struct Config {
    /// History window fed to the FFT, minutes.
    std::size_t fft_window = 256;
    /// Number of dominant harmonics kept.
    std::size_t harmonics = 8;
    /// Forecast horizon == scheduling period, minutes.
    trace::Minute refresh_interval = trace::kKeepAliveWindow;
    /// Predicted invocations/minute at or above which the function is
    /// warmed for that minute.
    double activation_threshold = 0.30;
    /// Forecast through a per-function sliding DFT (O(fft_window) per
    /// minute, allocation-free once the window is full) instead of a full
    /// FFT refit per refresh. Off by default: the refit path is the
    /// bit-pinned reference; the sliding path agrees within tolerance
    /// (bit-identical right after each DFT re-anchor) and is what the
    /// online serving mode uses. Until a function has seen fft_window
    /// minutes the refit path still serves its forecasts (warm-up).
    bool streaming_dft = false;
  };

  IceBreakerPolicy();  // default Config
  explicit IceBreakerPolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "IceBreaker"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  [[nodiscard]] std::unique_ptr<sim::PolicyCheckpoint> checkpoint() const override;
  void restore(const sim::PolicyCheckpoint* snapshot) override;

  /// Binds the icebreaker.* handle bundle (no name lookup per refresh).
  void attach_observer(const obs::Observer* observer) override;

 protected:
  /// Predicted invocation intensity of f for the next refresh interval.
  [[nodiscard]] std::vector<double> forecast(trace::FunctionId f) const;

  /// Hook for the PULSE integration: schedule function f for the horizon
  /// minutes (t+1 .. t+horizon) given the predicted intensities.
  virtual void apply_forecast(trace::FunctionId f, trace::Minute t,
                              const std::vector<double>& predicted,
                              sim::KeepAliveSchedule& schedule);

  Config config_;
  std::vector<std::vector<double>> history_;        // per function per-minute counts
  std::vector<std::uint32_t> current_minute_count_;  // accumulating minute t
  std::vector<predict::SlidingDft> dfts_;            // streaming_dft mode only
  predict::DftScratch dft_scratch_;                  // shared by every dfts_[f]
  std::vector<double> forecast_buffer_;              // streaming forecast scratch
  obs::CounterHandle refreshes_;                     // icebreaker.refreshes
};

class IceBreakerPulsePolicy : public IceBreakerPolicy {
 public:
  struct Config {
    IceBreakerPolicy::Config icebreaker{};
    trace::Minute local_window = 60;
    double memory_threshold = 0.10;
    core::ThresholdTechnique technique = core::ThresholdTechnique::kT1;
  };

  IceBreakerPulsePolicy();  // default Config
  explicit IceBreakerPulsePolicy(Config config);

  [[nodiscard]] std::string name() const override { return "IceBreaker+PULSE"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// Forwards to the optimizer so its metric-handle bundle follows engine
  /// detach/re-attach (e.g. around a silent checkpoint replay).
  void attach_observer(const obs::Observer* observer) override;

  /// Drop-induced cold starts inside the recent-invocation window serve the
  /// lowest variant (the downgrade's decision); fresh ones the highest.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override;

  [[nodiscard]] std::uint64_t downgrade_count() const override;

  [[nodiscard]] std::unique_ptr<sim::PolicyCheckpoint> checkpoint() const override;
  void restore(const sim::PolicyCheckpoint* snapshot) override;

 protected:
  void apply_forecast(trace::FunctionId f, trace::Minute t,
                      const std::vector<double>& predicted,
                      sim::KeepAliveSchedule& schedule) override;

 private:
  Config pulse_config_;
  std::vector<core::InterArrivalTracker> trackers_;
  std::unique_ptr<core::GlobalOptimizer> optimizer_;
};

inline IceBreakerPolicy::IceBreakerPolicy() : IceBreakerPolicy(Config{}) {}

}  // namespace pulse::policies
