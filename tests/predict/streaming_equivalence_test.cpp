// Streaming predictors vs their batch references, one observation at a
// time: at every prefix the streaming estimate must agree with a batch
// (re)fit over the same window — bit-for-bit where the streaming path
// re-anchors exactly (SlidingDft at refresh points, refresh_interval == 1
// everywhere), within tolerance for the incremental AR accumulators.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "predict/arima.hpp"
#include "predict/fft.hpp"
#include "predict/hybrid_histogram.hpp"
#include "predict/sliding_dft.hpp"
#include "util/rng.hpp"

namespace pulse::predict {
namespace {

/// Mildly autocorrelated test signal: AR(2)-ish with a seasonal term.
std::vector<double> make_signal(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<double> x;
  x.reserve(n);
  double a = 5.0;
  double b = 5.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double noise = static_cast<double>(rng.bounded(1000)) / 1000.0 - 0.5;
    const double seasonal = 2.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 24.0);
    const double next = 4.0 + 0.45 * a + 0.25 * b + seasonal + noise;
    x.push_back(next);
    b = a;
    a = next;
  }
  return x;
}

double batch_forecast(std::size_t order, std::span<const double> window) {
  ArModel model(order);
  model.fit(window);
  const std::vector<double> f = model.forecast(1);
  return f.empty() ? 0.0 : f[0];
}

TEST(StreamingEquivalence, ArMatchesBatchAtEveryPrefix) {
  constexpr std::size_t kOrder = 3;
  constexpr std::size_t kWindow = 32;
  const std::vector<double> signal = make_signal(400, 17);

  ArModel streaming(kOrder);
  streaming.stream_begin(kWindow);
  std::vector<double> window;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    streaming.stream_observe(signal[i]);
    window.push_back(signal[i]);
    if (window.size() > kWindow) window.erase(window.begin());
    if (window.size() < kOrder + 2) continue;

    ASSERT_TRUE(streaming.stream_fit()) << "i=" << i;
    const double batch = batch_forecast(kOrder, window);
    const double stream = streaming.forecast_one();
    const double tol = 1e-6 * std::max(1.0, std::abs(batch));
    ASSERT_NEAR(stream, batch, tol) << "prefix length " << i + 1;
  }
}

TEST(StreamingEquivalence, ArPeriodicRebuildBoundsDrift) {
  // A tiny refresh interval forces constant exact rebuilds; a huge one
  // never rebuilds after warm-up. Both must stay within tolerance of the
  // batch fit over a long stream — the rebuild exists to keep the
  // accumulator drift bounded, not to change the estimate.
  constexpr std::size_t kOrder = 2;
  constexpr std::size_t kWindow = 24;
  const std::vector<double> signal = make_signal(3000, 23);
  for (const std::size_t refresh : {std::size_t{1}, std::size_t{1000000}}) {
    ArModel streaming(kOrder);
    streaming.stream_begin(kWindow, refresh);
    std::vector<double> window;
    for (std::size_t i = 0; i < signal.size(); ++i) {
      streaming.stream_observe(signal[i]);
      window.push_back(signal[i]);
      if (window.size() > kWindow) window.erase(window.begin());
    }
    ASSERT_TRUE(streaming.stream_fit());
    const double batch = batch_forecast(kOrder, window);
    EXPECT_NEAR(streaming.forecast_one(), batch, 1e-5 * std::max(1.0, std::abs(batch)))
        << "refresh=" << refresh;
  }
}

TEST(StreamingEquivalence, ArStreamBeginRejectsBadParameters) {
  ArModel differenced(2, 1);
  EXPECT_THROW(differenced.stream_begin(32), std::invalid_argument);
  ArModel plain(3);
  EXPECT_THROW(plain.stream_begin(3), std::invalid_argument);  // window < order + 2
}

TEST(StreamingEquivalence, SlidingDftExactAtEveryPushWithUnitRefresh) {
  // refresh_interval = 1: every post-fill push re-anchors with an exact
  // FFT, so the extrapolation must be bit-identical to the batch
  // harmonic_extrapolate over the same window at every prefix.
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kHarmonics = 4;
  constexpr std::size_t kHorizon = 16;
  const std::vector<double> signal = make_signal(300, 31);

  SlidingDft dft(std::make_shared<const DftTables>(kWindow, kHorizon), 1);
  DftScratch scratch(kWindow);
  std::vector<double> out(kHorizon, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    dft.push(signal[i], scratch);
    if (!dft.ready()) continue;
    const std::span<const double> window(signal.data() + i + 1 - kWindow, kWindow);
    const std::vector<double> batch = harmonic_extrapolate(window, kHarmonics, kHorizon);
    dft.extrapolate_into(kHarmonics, out, scratch);
    for (std::size_t h = 0; h < kHorizon; ++h) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[h]), std::bit_cast<std::uint64_t>(batch[h]))
          << "i=" << i << " h=" << h << ": " << out[h] << " vs " << batch[h];
    }
  }
}

TEST(StreamingEquivalence, SlidingDftDefaultRefreshStaysWithinTolerance) {
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kHarmonics = 4;
  constexpr std::size_t kHorizon = 16;
  const std::vector<double> signal = make_signal(2000, 41);

  SlidingDft dft(std::make_shared<const DftTables>(kWindow, kHorizon));  // refresh: 4x window
  DftScratch scratch(kWindow);
  std::vector<double> out(kHorizon, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    dft.push(signal[i], scratch);
    if (!dft.ready()) continue;
    const std::span<const double> window(signal.data() + i + 1 - kWindow, kWindow);
    const std::vector<double> batch = harmonic_extrapolate(window, kHarmonics, kHorizon);
    dft.extrapolate_into(kHarmonics, out, scratch);
    for (std::size_t h = 0; h < kHorizon; ++h) {
      ASSERT_NEAR(out[h], batch[h], 1e-6 * std::max(1.0, std::abs(batch[h])))
          << "i=" << i << " h=" << h;
    }
  }
}

TEST(StreamingEquivalence, SlidingDftRejectsNonPow2Window) {
  EXPECT_THROW(DftTables(100, 10), std::invalid_argument);
}

TEST(StreamingEquivalence, HybridStreamingArTracksBatchPredictor) {
  // With streaming_ar the hybrid predictor swaps the per-prediction batch
  // refit for the incremental fit. The underlying estimates agree within
  // floating-point tolerance, so the derived integer windows may differ by
  // at most one minute of floor/ceil rounding.
  HybridHistogramPredictor::Config batch_config;
  batch_config.ar_window = 24;
  batch_config.cv_cutoff = 0.8;  // push the bursty stretches onto the AR path
  HybridHistogramPredictor::Config stream_config = batch_config;
  stream_config.streaming_ar = true;

  HybridHistogramPredictor batch(batch_config);
  HybridHistogramPredictor stream(stream_config);

  util::Pcg32 rng(53);
  trace::Minute t = 0;
  std::size_t time_series_predictions = 0;
  for (int i = 0; i < 500; ++i) {
    t += 1 + static_cast<trace::Minute>(rng.bounded(i % 3 == 0 ? 40 : 5));
    batch.observe_invocation(t);
    stream.observe_invocation(t);
    const WindowPrediction wb = batch.predict();
    const WindowPrediction ws = stream.predict();
    ASSERT_EQ(ws.used_time_series, wb.used_time_series) << "i=" << i;
    ASSERT_LE(std::abs(ws.prewarm_offset - wb.prewarm_offset), 1) << "i=" << i;
    ASSERT_LE(std::abs(ws.keepalive_until - wb.keepalive_until), 1) << "i=" << i;
    if (wb.used_time_series) ++time_series_predictions;
  }
  EXPECT_GT(time_series_predictions, 50u);  // the fixture must exercise the AR path
}

}  // namespace
}  // namespace pulse::predict
