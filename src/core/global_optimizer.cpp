#include "core/global_optimizer.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace pulse::core {

GlobalOptimizer::GlobalOptimizer(std::size_t model_count)
    : GlobalOptimizer(model_count, Config{}) {}

GlobalOptimizer::GlobalOptimizer(std::size_t model_count, Config config)
    : config_(config), detector_(config.peak), priority_(model_count) {
  const UtilityWeights& w = config_.weights;
  if (!std::isfinite(w.accuracy_improvement) || !std::isfinite(w.priority) ||
      !std::isfinite(w.invocation_probability)) {
    throw std::invalid_argument("GlobalOptimizer: utility weights must be finite");
  }
  // A peak minute can first occur arbitrarily late in a served stream;
  // sizing the flatten-round buffer up front keeps even that first peak
  // allocation-free (serve-mode hot-path discipline).
  kept_.reserve(model_count);
}

double GlobalOptimizer::invocation_probability(
    trace::FunctionId f, trace::Minute t,
    const std::vector<InterArrivalTracker>& trackers) const {
  // The offset of "now" within the keep-alive window comes from the
  // function's last invocation.
  const auto& tracker = trackers.at(f);
  if (const auto last = tracker.last_invocation()) {
    const trace::Minute offset = t - *last;
    if (offset < config_.keepalive_window) {
      return tracker.probability_within(static_cast<std::size_t>(offset + 1),
                                        static_cast<std::size_t>(config_.keepalive_window), t);
    }
  }
  return 0.0;
}

void GlobalOptimizer::rescore(KeptEntry& e) const {
  e.uv = UtilityComponents{e.ai, priority_.normalized_priority(e.f), e.ip}.value(config_.weights);
}

std::size_t GlobalOptimizer::flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                          const std::vector<InterArrivalTracker>& trackers) {
  // Record this minute's demand before any flattening, then compare it
  // against the prior derived from past demand (see DemandHistory).
  while (demand_.now() < t) demand_.push(0.0);  // tolerate skipped idle minutes
  const double limit = detector_.peak_limit(detector_.prior_memory(demand_, t));
  demand_.push(schedule.memory_at(t));
  std::size_t downgrades = 0;

  obs::TraceSink* const sink = obs_ != nullptr ? obs_->sink : nullptr;
  const sim::Deployment& deployment = schedule.deployment();

  // The kept list is built once per peak minute and maintained across
  // rounds: a downgrade changes only the victim's own entry (one variant
  // lower, or gone) and its priority count. Every entry's Uv stays what a
  // full rescore would give, so the first-index strict-< argmin picks the
  // same victim as re-listing and rescoring everything each round.
  bool kept_built = false;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  while (schedule.memory_exceeds(t, limit)) {
    if (!kept_built) {
      kept_.clear();
      schedule.for_each_alive(t, [&](trace::FunctionId f, std::size_t variant) {
        kept_.push_back({f, variant, deployment.family_of(f).accuracy_improvement(variant),
                         invocation_probability(f, t, trackers), 0.0});
        rescore(kept_.back());
      });
      lo = priority_.min_count();
      hi = priority_.max_count();
      kept_built = true;
    }
    if (kept_.empty()) break;  // nothing left to downgrade; peak cannot be flattened

    std::size_t worst_idx = 0;
    double worst_uv = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      if (kept_[i].uv < worst_uv) {
        worst_uv = kept_[i].uv;
        worst_idx = i;
      }
    }

    const trace::FunctionId worst_f = kept_[worst_idx].f;
    const auto prev = schedule.downgrade_from(worst_f, t);
    if (!prev) break;  // defensive: should not happen
    priority_.record_downgrade(worst_f);
    const bool renormalize = priority_.min_count() != lo || priority_.max_count() != hi;
    if (*prev > 0) {
      KeptEntry& victim = kept_[worst_idx];
      victim.variant = static_cast<std::size_t>(*prev - 1);
      victim.ai = deployment.family_of(worst_f).accuracy_improvement(victim.variant);
      if (!renormalize) rescore(victim);
    } else {
      kept_.erase(kept_.begin() + static_cast<std::ptrdiff_t>(worst_idx));
    }
    if (renormalize) {
      // Equation 1's min or max moved: every Pr changed.
      lo = priority_.min_count();
      hi = priority_.max_count();
      for (KeptEntry& e : kept_) rescore(e);
    }
    ++downgrades;
    if (sink != nullptr) {
      sink->record({obs::EventType::kDowngrade, t, worst_f, *prev,
                    static_cast<double>(*prev - 1), "flatten_peak"});
    }
  }
  if (downgrades > 0) {
    // Minute boundary: fold this minute's deltas into the registry through
    // the pre-resolved handles (unbound handles make this a no-op).
    metrics_.peak_minutes.bump();
    metrics_.downgrades.bump(downgrades);
    metrics_.peak_minutes.flush();
    metrics_.downgrades.flush();
  }
  return downgrades;
}

void GlobalOptimizer::set_observer(const obs::Observer* observer) {
  obs_ = observer;
  metrics_ = Metrics{};
  if (observer != nullptr && observer->metrics != nullptr) {
    metrics_.peak_minutes.bind(*observer->metrics, "optimizer.peak_minutes");
    metrics_.downgrades.bind(*observer->metrics, "optimizer.downgrades");
  }
}

}  // namespace pulse::core
