#pragma once
// Radix-2 FFT and harmonic extrapolation — the forecasting substrate of the
// IceBreaker baseline ("a fast Fourier-based method to forecast
// inter-arrival times of diverse serverless functions").

#include <complex>
#include <span>
#include <vector>

namespace pulse::predict {

/// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a power
/// of two (throws std::invalid_argument otherwise). `inverse` applies the
/// 1/N-scaled inverse transform.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

/// Next power of two >= n (minimum 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// Largest power of two <= n (requires n >= 1).
[[nodiscard]] std::size_t prev_pow2(std::size_t n) noexcept;

/// Bin selection shared by the harmonic models (harmonic_extrapolate and
/// SlidingDft). `magnitude[j]` holds |X_j| for the positive frequencies
/// j in [1, n/2] of an n-point transform (index 0 is not read). Ranks
/// those bins with std::sort, largest magnitude first, and writes into
/// `bins` DC followed by the top `harmonics` bins, each followed by its
/// conjugate mirror n-j when that is a distinct nonzero bin, so the
/// reconstruction stays real. `rank` is workspace. Neither vector
/// allocates when it already has capacity for n/2 resp. n+1 elements.
void select_harmonic_bins(std::span<const double> magnitude, std::size_t n,
                          std::size_t harmonics, std::vector<std::size_t>& rank,
                          std::vector<std::size_t>& bins);

/// Decomposes the largest power-of-two *suffix* of `series` into its
/// Fourier coefficients, keeps only the DC term and the `harmonics`
/// largest-magnitude frequency pairs, and evaluates the resulting
/// trigonometric approximation at the `horizon` indices just past the end
/// of the suffix.
///
/// This is the classic FFT-based seasonal extrapolation IceBreaker builds
/// on: the dominant harmonics capture the periodic structure of the
/// invocation series and extending their phases forecasts the next window.
///
/// Fitting a suffix (rather than zero-padding the whole series up to the
/// next power of two, as earlier revisions did) keeps the forecast indices
/// inside the model's own period. With padding, the first forecast index
/// lands in the padded region the transform treats as real data, so every
/// kept harmonic is biased toward reproducing the padding zeros there and
/// forecasts collapse toward zero whenever the series length is not a
/// power of two.
[[nodiscard]] std::vector<double> harmonic_extrapolate(std::span<const double> series,
                                                       std::size_t harmonics,
                                                       std::size_t horizon);

/// Smoothed reconstruction of the input itself from the top harmonics
/// (indices [0, series.size())); useful for diagnostics and tests.
[[nodiscard]] std::vector<double> harmonic_reconstruct(std::span<const double> series,
                                                       std::size_t harmonics);

}  // namespace pulse::predict
