#include "policies/icebreaker.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "predict/divergence.hpp"
#include "predict/fft.hpp"

namespace pulse::policies {

namespace {

/// IceBreaker's post-initialize state: the per-function count series and
/// the accumulator of the minute in flight.
struct IceBreakerCheckpoint : sim::PolicyCheckpoint {
  std::vector<std::vector<double>> history;
  std::vector<std::uint32_t> current_minute_count;
  std::vector<predict::SlidingDft> dfts;
};

/// IceBreaker+PULSE adds the inter-arrival trackers and global optimizer.
struct IceBreakerPulseCheckpoint final : IceBreakerCheckpoint {
  std::vector<core::InterArrivalTracker> trackers;
  std::unique_ptr<core::GlobalOptimizer> optimizer;
};

}  // namespace

void IceBreakerPolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                                  sim::KeepAliveSchedule& schedule) {
  (void)schedule;
  history_.assign(deployment.function_count(), {});
  // The count series grows to exactly trace.duration(); reserving up front
  // keeps end_of_minute() off the allocator for the whole run.
  for (auto& series : history_) series.reserve(static_cast<std::size_t>(trace.duration()));
  current_minute_count_.assign(deployment.function_count(), 0);
  dfts_.clear();
  dft_scratch_ = {};
  forecast_buffer_.clear();
  if (config_.streaming_dft) {
    // One immutable table set for every function (and every checkpoint
    // copy); per function only the window and its coefficients.
    const auto horizon = static_cast<std::size_t>(config_.refresh_interval);
    const auto tables = std::make_shared<const predict::DftTables>(config_.fft_window, horizon);
    dfts_.assign(deployment.function_count(), predict::SlidingDft(tables));
    dft_scratch_ = predict::DftScratch(config_.fft_window);
    forecast_buffer_.assign(horizon, 0.0);
  }
}

void IceBreakerPolicy::attach_observer(const obs::Observer* observer) {
  sim::KeepAlivePolicy::attach_observer(observer);
  refreshes_ = {};
  if (obs::MetricsRegistry* const m = metrics()) {
    refreshes_.bind(*m, "icebreaker.refreshes");
  }
}

void IceBreakerPolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                     sim::KeepAliveSchedule& schedule) {
  (void)t;
  (void)schedule;
  // Only record; all scheduling is predictor-driven at period boundaries.
  current_minute_count_.at(f) += 1;
}

std::vector<double> IceBreakerPolicy::forecast(trace::FunctionId f) const {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kPredict);
  const auto& series = history_.at(f);
  const std::size_t window = std::min(config_.fft_window, series.size());
  const std::span<const double> recent(series.data() + (series.size() - window), window);
  std::vector<double> predicted = predict::harmonic_extrapolate(
      recent, config_.harmonics, static_cast<std::size_t>(config_.refresh_interval));
  predict::ensure_finite(predicted, "icebreaker/fft");
  return predicted;
}

void IceBreakerPolicy::apply_forecast(trace::FunctionId f, trace::Minute t,
                                      const std::vector<double>& predicted,
                                      sim::KeepAliveSchedule& schedule) {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kSchedule);
  const int highest = static_cast<int>(schedule.variant_count_of(f)) - 1;
  for (std::size_t d = 0; d < predicted.size(); ++d) {
    const trace::Minute m = t + 1 + static_cast<trace::Minute>(d);
    if (predicted[d] >= config_.activation_threshold) {
      schedule.set(f, m, highest);
    } else {
      schedule.set(f, m, sim::kNoVariant);
    }
  }
}

void IceBreakerPolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                     const sim::MemoryHistory& history) {
  (void)history;
  // Close the accounting for minute t.
  for (trace::FunctionId f = 0; f < history_.size(); ++f) {
    const auto count = static_cast<double>(current_minute_count_[f]);
    history_[f].push_back(count);
    if (!dfts_.empty()) dfts_[f].push(count, dft_scratch_);
    current_minute_count_[f] = 0;
  }

  // At period boundaries, forecast and schedule the next period.
  if ((t + 1) % config_.refresh_interval != 0) return;
  refreshes_.bump();
  refreshes_.flush();  // refresh boundary == minute boundary
  if (obs::TraceSink* const s = sink()) {
    s->record({obs::EventType::kPolicyDecision, t, obs::TraceEvent::kNoFunction, -1,
               static_cast<double>(history_.size()), "forecast_refresh"});
  }
  for (trace::FunctionId f = 0; f < history_.size(); ++f) {
    if (history_[f].empty()) continue;
    if (!dfts_.empty() && dfts_[f].ready()) {
      // Streaming path: the sliding DFT already tracks the last fft_window
      // minutes; extrapolate into the preallocated buffer, no allocation.
      const obs::PhaseTimer timer(profiler(), obs::Phase::kPredict);
      dfts_[f].extrapolate_into(config_.harmonics, forecast_buffer_, dft_scratch_);
      predict::ensure_finite(forecast_buffer_, "icebreaker/sliding-dft");
      apply_forecast(f, t, forecast_buffer_, schedule);
    } else {
      apply_forecast(f, t, forecast(f), schedule);
    }
  }
}

std::unique_ptr<sim::PolicyCheckpoint> IceBreakerPolicy::checkpoint() const {
  auto snap = std::make_unique<IceBreakerCheckpoint>();
  snap->history = history_;
  snap->current_minute_count = current_minute_count_;
  snap->dfts = dfts_;
  return snap;
}

void IceBreakerPolicy::restore(const sim::PolicyCheckpoint* snapshot) {
  const auto* snap = dynamic_cast<const IceBreakerCheckpoint*>(snapshot);
  if (snap == nullptr) {
    throw std::invalid_argument("IceBreakerPolicy::restore: wrong snapshot type");
  }
  history_ = snap->history;
  current_minute_count_ = snap->current_minute_count;
  dfts_ = snap->dfts;
}

IceBreakerPulsePolicy::IceBreakerPulsePolicy() : IceBreakerPulsePolicy(Config{}) {}

IceBreakerPulsePolicy::IceBreakerPulsePolicy(Config config)
    : IceBreakerPolicy(config.icebreaker), pulse_config_(config) {}

void IceBreakerPulsePolicy::initialize(const sim::Deployment& deployment,
                                       const trace::Trace& trace,
                                       sim::KeepAliveSchedule& schedule) {
  IceBreakerPolicy::initialize(deployment, trace, schedule);

  core::InterArrivalTracker::Config tracker_config;
  tracker_config.local_window = pulse_config_.local_window;
  trackers_.assign(deployment.function_count(), core::InterArrivalTracker(tracker_config));

  core::GlobalOptimizer::Config opt_config;
  opt_config.peak.memory_threshold = pulse_config_.memory_threshold;
  opt_config.peak.local_window = pulse_config_.local_window;
  optimizer_ = std::make_unique<core::GlobalOptimizer>(deployment.function_count(), opt_config);
  optimizer_->reserve_horizon(static_cast<std::size_t>(trace.duration()));
  optimizer_->set_observer(observer());
}

void IceBreakerPulsePolicy::attach_observer(const obs::Observer* observer) {
  IceBreakerPolicy::attach_observer(observer);
  if (optimizer_) optimizer_->set_observer(observer);
}

void IceBreakerPulsePolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                          sim::KeepAliveSchedule& schedule) {
  IceBreakerPolicy::on_invocation(f, t, schedule);
  trackers_.at(f).record(t);
}

void IceBreakerPulsePolicy::apply_forecast(trace::FunctionId f, trace::Minute t,
                                           const std::vector<double>& predicted,
                                           sim::KeepAliveSchedule& schedule) {
  // PULSE maps the predicted concurrency to an invocation likelihood and
  // selects the variant greedily instead of always warming the highest one.
  const obs::PhaseTimer timer(profiler(), obs::Phase::kSchedule);
  const std::size_t variants = schedule.variant_count_of(f);
  for (std::size_t d = 0; d < predicted.size(); ++d) {
    const trace::Minute m = t + 1 + static_cast<trace::Minute>(d);
    if (predicted[d] < config_.activation_threshold) {
      schedule.set(f, m, sim::kNoVariant);
      continue;
    }
    const double likelihood = std::clamp(predicted[d], 0.0, 1.0);
    const std::size_t v = core::select_variant(likelihood, variants, pulse_config_.technique);
    schedule.set(f, m, static_cast<int>(v));
  }
}

void IceBreakerPulsePolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                          const sim::MemoryHistory& history) {
  IceBreakerPolicy::end_of_minute(t, schedule, history);
  const obs::PhaseTimer timer(profiler(), obs::Phase::kOptimize);
  optimizer_->flatten_peak(t, schedule, trackers_);
}

std::size_t IceBreakerPulsePolicy::cold_start_variant(
    trace::FunctionId f, trace::Minute t, const sim::Deployment& deployment) const {
  if (f < trackers_.size()) {
    if (const auto last = trackers_[f].last_invocation()) {
      if (t - *last <= trace::kKeepAliveWindow) return 0;
    }
  }
  return deployment.family_of(f).highest_index();
}

std::uint64_t IceBreakerPulsePolicy::downgrade_count() const {
  return optimizer_ ? optimizer_->total_downgrades() : 0;
}

std::unique_ptr<sim::PolicyCheckpoint> IceBreakerPulsePolicy::checkpoint() const {
  auto snap = std::make_unique<IceBreakerPulseCheckpoint>();
  snap->history = history_;
  snap->current_minute_count = current_minute_count_;
  snap->dfts = dfts_;
  snap->trackers = trackers_;
  if (optimizer_) snap->optimizer = std::make_unique<core::GlobalOptimizer>(*optimizer_);
  return snap;
}

void IceBreakerPulsePolicy::restore(const sim::PolicyCheckpoint* snapshot) {
  const auto* snap = dynamic_cast<const IceBreakerPulseCheckpoint*>(snapshot);
  if (snap == nullptr) {
    throw std::invalid_argument("IceBreakerPulsePolicy::restore: wrong snapshot type");
  }
  history_ = snap->history;
  current_minute_count_ = snap->current_minute_count;
  dfts_ = snap->dfts;
  trackers_ = snap->trackers;
  optimizer_ = snap->optimizer ? std::make_unique<core::GlobalOptimizer>(*snap->optimizer)
                               : nullptr;
  if (optimizer_) optimizer_->set_observer(observer());
}

}  // namespace pulse::policies
