#include "predict/sliding_dft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "predict/fft.hpp"

namespace pulse::predict {

DftTables::DftTables(std::size_t window, std::size_t horizon)
    : window_(window),
      horizon_(horizon),
      twiddle_re_(window),
      twiddle_im_(window),
      eval_cos_(window * horizon),
      eval_sin_(window * horizon) {
  if (window == 0 || (window & (window - 1)) != 0) {
    throw std::invalid_argument("DftTables: window must be a power of two");
  }
  const double n = static_cast<double>(window);
  for (std::size_t k = 0; k < window; ++k) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) / n;
    twiddle_re_[k] = std::cos(angle);
    twiddle_im_[k] = std::sin(angle);
  }
  // The angle expression is harmonic_extrapolate's (fft.cpp), so a forecast
  // read from the table is bit-identical to one that calls cos/sin itself.
  for (std::size_t h = 0; h < horizon; ++h) {
    const double index = n + static_cast<double>(h);
    for (std::size_t j = 0; j < window; ++j) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(j) * index / n;
      eval_cos_[h * window + j] = std::cos(angle);
      eval_sin_[h * window + j] = std::sin(angle);
    }
  }
}

DftScratch::DftScratch(std::size_t window)
    : fft_(window), magnitude_(window / 2 + 1) {
  rank_.reserve(window / 2);
  bins_.reserve(window + 1);
}

SlidingDft::SlidingDft(std::shared_ptr<const DftTables> tables, std::size_t refresh_interval)
    : tables_(std::move(tables)),
      refresh_interval_(refresh_interval == 0 ? window() * 4 : refresh_interval),
      samples_(window()),
      re_(window(), 0.0),
      im_(window(), 0.0) {}

void SlidingDft::check_scratch(const DftScratch& scratch) const {
  if (scratch.window() != window()) {
    throw std::invalid_argument("SlidingDft: scratch built for a different window");
  }
}

void SlidingDft::refresh(DftScratch& scratch) {
  const std::size_t n = window();
  for (std::size_t i = 0; i < n; ++i) scratch.fft_[i] = samples_[i];
  fft(scratch.fft_, /*inverse=*/false);
  for (std::size_t k = 0; k < n; ++k) {
    re_[k] = scratch.fft_[k].real();
    im_[k] = scratch.fft_[k].imag();
  }
  pushes_since_refresh_ = 0;
}

void SlidingDft::push(double x, DftScratch& scratch) {
  check_scratch(scratch);
  ++total_pushed_;
  const std::size_t n = window();
  if (samples_.size() < n) {
    samples_.push_back(x);
    if (samples_.size() == n) refresh(scratch);  // anchor the recurrence
    return;
  }

  const double x_old = samples_.front();
  samples_.pop_front();
  samples_.push_back(x);
  // (X_k + delta) * w_k with delta = (x - x_old) + 0i, written out in the
  // operation order of std::complex's add and multiply. The imaginary
  // "+ 0.0" stays: it turns -0.0 into +0.0 exactly as the complex add does.
  const double d = x - x_old;
  const double* const wr = tables_->twiddle_re_.data();
  const double* const wi = tables_->twiddle_im_.data();
  double* const re = re_.data();
  double* const im = im_.data();
  for (std::size_t k = 0; k < n; ++k) {
    const double xr = re[k] + d;
    const double xi = im[k] + 0.0;
    re[k] = xr * wr[k] - xi * wi[k];
    im[k] = xr * wi[k] + xi * wr[k];
  }
  if (++pushes_since_refresh_ >= refresh_interval_) refresh(scratch);
}

void SlidingDft::extrapolate_into(std::size_t harmonics, std::vector<double>& out,
                                  DftScratch& scratch) const {
  if (!ready()) throw std::logic_error("SlidingDft::extrapolate_into: window not full");
  const std::size_t n = window();
  const std::size_t horizon = tables_->horizon();
  if (out.size() < horizon) {
    throw std::invalid_argument("SlidingDft::extrapolate_into: out buffer too small");
  }
  check_scratch(scratch);

  for (std::size_t j = 1; j <= n / 2; ++j) {
    scratch.magnitude_[j] = std::abs(std::complex<double>(re_[j], im_[j]));
  }
  select_harmonic_bins(scratch.magnitude_, n, harmonics, scratch.rank_, scratch.bins_);

  // Real part of sum_j X_j * (cos + i sin), accumulated in bin order from
  // 0.0 exactly as the complex accumulation of harmonic_extrapolate does.
  for (std::size_t h = 0; h < horizon; ++h) {
    const double* const c = tables_->eval_cos_.data() + h * n;
    const double* const s = tables_->eval_sin_.data() + h * n;
    double acc = 0.0;
    for (std::size_t j : scratch.bins_) acc += re_[j] * c[j] - im_[j] * s[j];
    out[h] = acc / static_cast<double>(n);
  }
}

}  // namespace pulse::predict
