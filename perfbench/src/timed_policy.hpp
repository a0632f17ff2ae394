#pragma once
// Bench-side KeepAlivePolicy decorator. It forwards every virtual of the
// interface to the wrapped policy unchanged and times the calls from the
// outside, so the benchmark can split a run into policy layers (core
// Algorithm 1 and 2, the IceBreaker predictor) and engine self time
// without any instrumentation inside the simulator.
//
// Two modes:
//   kFull         times every hook (on_invocation, cold_start_variant,
//                 end_of_minute) and keeps one MinuteMark per minute. This
//                 is the traced run.
//   kMinuteClock  reads the clock once per end_of_minute and keeps only
//                 the MinuteMarks. Cluster runs cannot time a shard minute
//                 from outside ClusterEngine::run, so the untraced cluster
//                 run uses this mode for its minute percentiles.
//
// Each instance belongs to one SteppedRun (one shard), which calls it from
// one thread at a time; the counters need no synchronisation. They live in
// a caller-owned PolicyTimes, because ClusterEngine::run destroys its
// policies before it returns; read them after the driving run returned.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/policy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One closed minute of one policy instance: `open_ns` is the entry of the
/// minute's first hook call (kMinuteClock: of end_of_minute), `close_ns` the
/// return of its end_of_minute.
struct MinuteMark {
  pulse::trace::Minute t = 0;
  std::int64_t open_ns = 0;
  std::int64_t close_ns = 0;
};

struct PolicyTimes {
  std::uint64_t on_invocation_calls = 0;
  std::int64_t on_invocation_ns = 0;
  std::uint64_t cold_start_variant_calls = 0;
  std::int64_t cold_start_variant_ns = 0;
  /// end_of_minute calls in which downgrade_count() rose (Algorithm 2 ran
  /// and downgraded), and the downgrades they performed.
  std::uint64_t flatten_minutes = 0;
  std::int64_t flatten_ns = 0;
  std::uint64_t flatten_downgrades = 0;
  /// end_of_minute calls on a predictor refresh tick ((t + 1) is a multiple
  /// of the refresh interval given to the decorator).
  std::uint64_t refresh_ticks = 0;
  std::int64_t refresh_ns = 0;
  /// Every other end_of_minute call.
  std::uint64_t other_ticks = 0;
  std::int64_t other_ns = 0;
  /// Entry time of the first minute hook (-1 until one is called).
  std::int64_t first_hook_ns = -1;
  std::vector<MinuteMark> marks;

  [[nodiscard]] std::int64_t hook_ns() const noexcept {
    return on_invocation_ns + cold_start_variant_ns + flatten_ns + refresh_ns + other_ns;
  }
};

class TimedPolicy final : public pulse::sim::KeepAlivePolicy {
 public:
  enum class Mode { kFull, kMinuteClock };

  /// `times` receives the measurements and must outlive the policy.
  /// `refresh_interval` > 0 classifies end_of_minute calls at minutes t with
  /// (t + 1) % refresh_interval == 0 as predictor refreshes.
  TimedPolicy(std::unique_ptr<pulse::sim::KeepAlivePolicy> inner, PolicyTimes& times,
              Mode mode, pulse::trace::Minute refresh_interval = 0)
      : inner_(std::move(inner)), times_(&times), mode_(mode),
        refresh_interval_(refresh_interval) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void initialize(const pulse::sim::Deployment& deployment, const pulse::trace::Trace& trace,
                  pulse::sim::KeepAliveSchedule& schedule) override {
    // Replays after a shard crash re-close minutes, so leave room for them.
    times_->marks.reserve(2 * static_cast<std::size_t>(trace.duration()) + 64);
    inner_->initialize(deployment, trace, schedule);
  }

  void on_invocation(pulse::trace::FunctionId f, pulse::trace::Minute t,
                     pulse::sim::KeepAliveSchedule& schedule) override {
    if (mode_ == Mode::kMinuteClock) {
      mark_first_hook();
      inner_->on_invocation(f, t, schedule);
      return;
    }
    const std::int64_t start = open(now_ns());
    inner_->on_invocation(f, t, schedule);
    times_->on_invocation_ns += now_ns() - start;
    ++times_->on_invocation_calls;
  }

  void end_of_minute(pulse::trace::Minute t, pulse::sim::KeepAliveSchedule& schedule,
                     const pulse::sim::MemoryHistory& history) override {
    const std::int64_t start = open(now_ns());
    if (mode_ == Mode::kMinuteClock) {
      inner_->end_of_minute(t, schedule, history);
      close(t, now_ns());
      return;
    }
    const std::uint64_t downgrades_before = inner_->downgrade_count();
    inner_->end_of_minute(t, schedule, history);
    const std::int64_t end = now_ns();
    const std::int64_t dt = end - start;
    const std::uint64_t downgrades = inner_->downgrade_count() - downgrades_before;
    if (downgrades > 0) {
      ++times_->flatten_minutes;
      times_->flatten_ns += dt;
      times_->flatten_downgrades += downgrades;
    } else if (refresh_interval_ > 0 && (t + 1) % refresh_interval_ == 0) {
      ++times_->refresh_ticks;
      times_->refresh_ns += dt;
    } else {
      ++times_->other_ticks;
      times_->other_ns += dt;
    }
    close(t, end);
  }

  [[nodiscard]] std::size_t cold_start_variant(
      pulse::trace::FunctionId f, pulse::trace::Minute t,
      const pulse::sim::Deployment& deployment) const override {
    if (mode_ == Mode::kMinuteClock) {
      mark_first_hook();
      return inner_->cold_start_variant(f, t, deployment);
    }
    const std::int64_t start = open(now_ns());
    const std::size_t variant = inner_->cold_start_variant(f, t, deployment);
    times_->cold_start_variant_ns += now_ns() - start;
    ++times_->cold_start_variant_calls;
    return variant;
  }

  [[nodiscard]] std::uint64_t downgrade_count() const override {
    return inner_->downgrade_count();
  }

  [[nodiscard]] std::uint64_t incident_count() const override {
    return inner_->incident_count();
  }

  [[nodiscard]] std::unique_ptr<pulse::sim::PolicyCheckpoint> checkpoint() const override {
    return inner_->checkpoint();
  }

  void restore(const pulse::sim::PolicyCheckpoint* snapshot) override {
    inner_->restore(snapshot);
  }

  void attach_observer(const pulse::obs::Observer* observer) override {
    inner_->attach_observer(observer);
  }

 private:
  /// kMinuteClock: the timed phase still starts at the first hook of any
  /// kind, at the price of a branch per call.
  void mark_first_hook() const noexcept {
    if (times_->first_hook_ns < 0) times_->first_hook_ns = now_ns();
  }

  /// Records `ts` as the open time of the current minute if no hook of it
  /// has run yet; returns `ts`.
  std::int64_t open(std::int64_t ts) const noexcept {
    if (minute_open_ns_ < 0) minute_open_ns_ = ts;
    if (times_->first_hook_ns < 0) times_->first_hook_ns = ts;
    return ts;
  }

  void close(pulse::trace::Minute t, std::int64_t ts) {
    times_->marks.push_back({t, minute_open_ns_, ts});
    minute_open_ns_ = -1;
  }

  std::unique_ptr<pulse::sim::KeepAlivePolicy> inner_;
  PolicyTimes* times_;
  Mode mode_;
  pulse::trace::Minute refresh_interval_;
  // cold_start_variant is const in the interface but still opens a minute.
  mutable std::int64_t minute_open_ns_ = -1;
};

}  // namespace perfbench
