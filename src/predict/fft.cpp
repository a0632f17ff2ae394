#include "predict/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace pulse::predict {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Evaluates the kept-harmonic trigonometric model at arbitrary (possibly
/// out-of-range) sample indices. X are the forward-FFT coefficients of the
/// padded series of length N; `bins` are the coefficient indices kept.
double evaluate_model(const std::vector<std::complex<double>>& coeffs,
                      const std::vector<std::size_t>& bins, std::size_t n_padded,
                      double index) {
  const double n = static_cast<double>(n_padded);
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t j : bins) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(j) * index / n;
    acc += coeffs[j] * std::complex<double>(std::cos(angle), std::sin(angle));
  }
  return acc.real() / n;
}

struct HarmonicModel {
  std::vector<std::complex<double>> coeffs;
  std::vector<std::size_t> bins;
  std::size_t n_padded = 0;
};

HarmonicModel fit_harmonics(std::span<const double> series, std::size_t harmonics) {
  HarmonicModel model;
  if (series.empty()) return model;

  model.n_padded = next_pow2(series.size());
  model.coeffs.assign(model.n_padded, {0.0, 0.0});
  for (std::size_t i = 0; i < series.size(); ++i) model.coeffs[i] = series[i];
  fft(model.coeffs, /*inverse=*/false);

  std::vector<double> magnitude(model.n_padded / 2 + 1);
  for (std::size_t j = 1; j <= model.n_padded / 2; ++j) magnitude[j] = std::abs(model.coeffs[j]);
  std::vector<std::size_t> rank;
  select_harmonic_bins(magnitude, model.n_padded, harmonics, rank, model.bins);
  return model;
}

}  // namespace

void select_harmonic_bins(std::span<const double> magnitude, std::size_t n,
                          std::size_t harmonics, std::vector<std::size_t>& rank,
                          std::vector<std::size_t>& bins) {
  rank.clear();
  for (std::size_t j = 1; j <= n / 2; ++j) rank.push_back(j);
  // Reading cached magnitudes makes the same comparisons as ranking by
  // std::abs(X) directly, so std::sort yields the same order, ties included.
  std::sort(rank.begin(), rank.end(),
            [&](std::size_t a, std::size_t b) { return magnitude[a] > magnitude[b]; });

  bins.clear();
  bins.push_back(0);  // DC: the mean invocation level
  const std::size_t keep = std::min(harmonics, rank.size());
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t j = rank[k];
    bins.push_back(j);
    const std::size_t mirror = (n - j) % n;
    if (mirror != j && mirror != 0) bins.push_back(mirror);
  }
}

std::size_t next_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t prev_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p * 2 <= n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wn(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wn;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= scale;
  }
}

std::vector<double> harmonic_extrapolate(std::span<const double> series,
                                         std::size_t harmonics, std::size_t horizon) {
  std::vector<double> out(horizon, 0.0);
  if (series.empty() || horizon == 0) return out;
  // Fit the largest power-of-two suffix so no zero-padding enters the
  // transform: padding would place the forecast indices inside a region
  // the fitted harmonics actively model as zero, dragging every forecast
  // toward zero for non-power-of-two lengths (see fft.hpp).
  const std::size_t n_fit = prev_pow2(series.size());
  const std::span<const double> suffix = series.subspan(series.size() - n_fit, n_fit);
  const HarmonicModel model = fit_harmonics(suffix, harmonics);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = evaluate_model(model.coeffs, model.bins, model.n_padded,
                            static_cast<double>(n_fit + h));
  }
  return out;
}

std::vector<double> harmonic_reconstruct(std::span<const double> series,
                                         std::size_t harmonics) {
  std::vector<double> out(series.size(), 0.0);
  if (series.empty()) return out;
  const HarmonicModel model = fit_harmonics(series, harmonics);
  for (std::size_t i = 0; i < series.size(); ++i) {
    out[i] = evaluate_model(model.coeffs, model.bins, model.n_padded, static_cast<double>(i));
  }
  return out;
}

}  // namespace pulse::predict
