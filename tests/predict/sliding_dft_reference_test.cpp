// Differential test: SlidingDft (split real/imaginary coefficients, shared
// twiddle and evaluation tables, bins ranked by cached magnitudes) against
// the array-of-std::complex sliding DFT it replaced, kept below as the
// oracle. Over seeded Poisson, bursty, all-zero and one-hot streams, for
// windows 64 and 256 and re-anchor intervals 1, 7 and the default, the two
// must agree bit for bit after every push: every coefficient and every
// forecast. With a re-anchor on every push the batch harmonic_extrapolate
// over the same window must match too, so the shared bin selection is
// checked on both of its callers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <functional>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "predict/fft.hpp"
#include "predict/sliding_dft.hpp"
#include "util/rng.hpp"
#include "util/ring_buffer.hpp"

namespace pulse::predict {
namespace {

/// The sliding DFT as first implemented: std::complex coefficients, private
/// twiddles, std::sort ranking with std::abs in the comparator and cos/sin
/// evaluated per forecast.
class ReferenceSlidingDft {
 public:
  ReferenceSlidingDft(std::size_t window, std::size_t refresh_interval)
      : window_(window),
        refresh_interval_(refresh_interval == 0 ? window * 4 : refresh_interval),
        samples_(window),
        coeffs_(window, {0.0, 0.0}),
        twiddles_(window),
        fft_scratch_(window) {
    for (std::size_t k = 0; k < window_; ++k) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(window_);
      twiddles_[k] = {std::cos(angle), std::sin(angle)};
    }
  }

  void push(double x) {
    if (samples_.size() < window_) {
      samples_.push_back(x);
      if (samples_.size() == window_) refresh();
      return;
    }
    const double x_old = samples_.front();
    samples_.pop_front();
    samples_.push_back(x);
    const std::complex<double> delta(x - x_old, 0.0);
    for (std::size_t k = 0; k < window_; ++k) {
      coeffs_[k] = (coeffs_[k] + delta) * twiddles_[k];
    }
    if (++pushes_since_refresh_ >= refresh_interval_) refresh();
  }

  [[nodiscard]] bool ready() const { return samples_.size() == window_; }
  [[nodiscard]] const std::vector<std::complex<double>>& coeffs() const { return coeffs_; }

  [[nodiscard]] std::vector<double> extrapolate(std::size_t harmonics,
                                                std::size_t horizon) const {
    std::vector<std::size_t> rank;
    for (std::size_t j = 1; j <= window_ / 2; ++j) rank.push_back(j);
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
      return std::abs(coeffs_[a]) > std::abs(coeffs_[b]);
    });
    std::vector<std::size_t> bins{0};
    const std::size_t keep = std::min(harmonics, rank.size());
    for (std::size_t k = 0; k < keep; ++k) {
      const std::size_t j = rank[k];
      bins.push_back(j);
      const std::size_t mirror = (window_ - j) % window_;
      if (mirror != j && mirror != 0) bins.push_back(mirror);
    }
    std::vector<double> out(horizon);
    const double n = static_cast<double>(window_);
    for (std::size_t h = 0; h < horizon; ++h) {
      const double index = n + static_cast<double>(h);
      std::complex<double> acc{0.0, 0.0};
      for (std::size_t j : bins) {
        const double angle = 2.0 * std::numbers::pi * static_cast<double>(j) * index / n;
        acc += coeffs_[j] * std::complex<double>(std::cos(angle), std::sin(angle));
      }
      out[h] = acc.real() / n;
    }
    return out;
  }

 private:
  void refresh() {
    for (std::size_t i = 0; i < window_; ++i) fft_scratch_[i] = samples_[i];
    fft(fft_scratch_, /*inverse=*/false);
    std::copy(fft_scratch_.begin(), fft_scratch_.end(), coeffs_.begin());
    pushes_since_refresh_ = 0;
  }

  std::size_t window_;
  std::size_t refresh_interval_;
  std::size_t pushes_since_refresh_ = 0;
  util::RingBuffer<double> samples_;
  std::vector<std::complex<double>> coeffs_;
  std::vector<std::complex<double>> twiddles_;
  std::vector<std::complex<double>> fft_scratch_;
};

enum class Kind { kPoisson, kBursty, kAllZero, kOneHot };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPoisson: return "poisson";
    case Kind::kBursty: return "bursty";
    case Kind::kAllZero: return "all-zero";
    case Kind::kOneHot: return "one-hot";
  }
  return "?";
}

/// Per-minute invocation counts of one synthetic function.
std::vector<double> make_stream(Kind kind, std::size_t window, std::size_t length,
                                std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<double> x(length, 0.0);
  switch (kind) {
    case Kind::kPoisson: {
      const double lambda = rng.uniform(0.05, 6.0);
      for (double& v : x) v = static_cast<double>(util::poisson(rng, lambda));
      break;
    }
    case Kind::kBursty: {
      for (std::size_t i = 0; i < length;) {
        if (rng.bernoulli(0.04)) {
          const std::size_t len = 1 + rng.bounded(20);
          const double rate = rng.uniform(1.0, 40.0);
          for (std::size_t k = 0; k < len && i < length; ++k, ++i) {
            x[i] = static_cast<double>(util::poisson(rng, rate));
          }
        } else {
          ++i;
        }
      }
      break;
    }
    case Kind::kAllZero:
      break;
    case Kind::kOneHot: {
      // Odd seeds: isolated single-invocation minutes, about one per window
      // (every bin of a lone spike has the same magnitude). Even seeds: one
      // invocation every `period` minutes, a period dividing the window, so
      // whole families of bins are exactly zero or exactly equal.
      if (seed % 2 == 1) {
        for (double& v : x) v = rng.bernoulli(1.0 / static_cast<double>(window)) ? 1.0 : 0.0;
      } else {
        const std::size_t period = std::size_t{4} << rng.bounded(4);
        const std::size_t phase = rng.bounded(static_cast<std::uint32_t>(period));
        for (std::size_t i = phase; i < length; i += period) x[i] = 1.0;
      }
      break;
    }
  }
  return x;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Coverage tallies over the sweep, so the test proves the cases that
/// separate a faithful rewrite from a near miss actually occurred.
struct Coverage {
  std::uint64_t forecasts = 0;
  std::uint64_t tied_nonzero = 0;     // two ranked bins share a nonzero magnitude
  std::uint64_t tied_at_cutoff = 0;   // a tie straddles the last kept harmonic
  std::uint64_t negative_zero_im = 0;  // an imaginary part was -0.0 before a push
  std::uint64_t batch_checks = 0;
};

void tally_ties(const std::vector<std::complex<double>>& coeffs, std::size_t harmonics,
                Coverage& cov) {
  std::vector<double> mags;
  for (std::size_t j = 1; j <= coeffs.size() / 2; ++j) mags.push_back(std::abs(coeffs[j]));
  std::sort(mags.begin(), mags.end(), std::greater<>());
  for (std::size_t k = 1; k < mags.size(); ++k) {
    if (mags[k] == mags[k - 1] && mags[k] > 0.0) {
      ++cov.tied_nonzero;
      break;
    }
  }
  if (harmonics < mags.size() && mags[harmonics - 1] == mags[harmonics]) ++cov.tied_at_cutoff;
}

void run_stream(Kind kind, std::size_t window, std::size_t refresh, std::uint64_t seed,
                Coverage& cov) {
  constexpr std::size_t kHorizon = 10;
  const std::size_t harmonics = seed % 3 == 0 ? 3 : 8;
  // Past the default re-anchor at 5 * window, so every interval runs the
  // recurrence from an anchor and re-anchors at least once.
  const std::size_t length = 5 * window + window / 2 + seed % 7;
  const std::vector<double> stream = make_stream(kind, window, length, seed);

  ReferenceSlidingDft reference(window, refresh);
  SlidingDft dft(std::make_shared<const DftTables>(window, kHorizon), refresh);
  DftScratch scratch(window);
  std::vector<double> out(kHorizon, 0.0);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    SCOPED_TRACE(std::string(kind_name(kind)) + " window=" + std::to_string(window) +
                 " refresh=" + std::to_string(refresh) + " seed=" + std::to_string(seed) +
                 " push=" + std::to_string(i));
    for (const std::complex<double>& c : reference.coeffs()) {
      cov.negative_zero_im += c.imag() == 0.0 && std::signbit(c.imag()) ? 1 : 0;
    }
    reference.push(stream[i]);
    dft.push(stream[i], scratch);
    ASSERT_EQ(dft.ready(), reference.ready());
    for (std::size_t k = 0; k < window; ++k) {
      ASSERT_EQ(bits(dft.coeff_re(k)), bits(reference.coeffs()[k].real())) << "k=" << k;
      ASSERT_EQ(bits(dft.coeff_im(k)), bits(reference.coeffs()[k].imag())) << "k=" << k;
    }
    if (!dft.ready()) continue;

    const std::vector<double> expected = reference.extrapolate(harmonics, kHorizon);
    dft.extrapolate_into(harmonics, out, scratch);
    ++cov.forecasts;
    tally_ties(reference.coeffs(), harmonics, cov);
    for (std::size_t h = 0; h < kHorizon; ++h) {
      ASSERT_EQ(bits(out[h]), bits(expected[h])) << "h=" << h << ": " << out[h] << " vs "
                                                  << expected[h];
    }
    if (refresh == 1) {
      const std::span<const double> recent(stream.data() + i + 1 - window, window);
      const std::vector<double> batch = harmonic_extrapolate(recent, harmonics, kHorizon);
      ++cov.batch_checks;
      for (std::size_t h = 0; h < kHorizon; ++h) {
        ASSERT_EQ(bits(batch[h]), bits(expected[h])) << "batch h=" << h;
      }
    }
  }
}

TEST(SlidingDftReference, RandomizedStreamsMatchBitForBit) {
  Coverage cov;
  for (const std::size_t window : {std::size_t{64}, std::size_t{256}}) {
    for (const std::size_t refresh : {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      for (const Kind kind : {Kind::kPoisson, Kind::kBursty, Kind::kAllZero, Kind::kOneHot}) {
        for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}}) {
          run_stream(kind, window, refresh, seed * 7919 + window + refresh, cov);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(cov.forecasts, 50'000u);
  EXPECT_GT(cov.tied_nonzero, 1'000u);
  EXPECT_GT(cov.tied_at_cutoff, 1'000u);
  EXPECT_GT(cov.negative_zero_im, 0u);
  EXPECT_GT(cov.batch_checks, 10'000u);
}

TEST(SlidingDftReference, ScratchOfAnotherWindowIsRejected) {
  SlidingDft dft(std::make_shared<const DftTables>(64, 10));
  DftScratch wrong(128);
  EXPECT_THROW(dft.push(1.0, wrong), std::invalid_argument);
  DftScratch scratch(64);
  for (int i = 0; i < 64; ++i) dft.push(1.0, scratch);
  std::vector<double> out(10, 0.0);
  EXPECT_THROW(dft.extrapolate_into(8, out, wrong), std::invalid_argument);
  std::vector<double> short_out(9, 0.0);
  EXPECT_THROW(dft.extrapolate_into(8, short_out, scratch), std::invalid_argument);
  dft.extrapolate_into(8, out, scratch);
  for (double v : out) EXPECT_NEAR(v, 1.0, 1e-12);
}

}  // namespace
}  // namespace pulse::predict
