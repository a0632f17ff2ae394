#pragma once
// Sliding (hopping-free) DFT over a fixed power-of-two window — the
// streaming counterpart of predict::harmonic_extrapolate for the online
// serving mode. Each new sample updates every frequency bin with the
// recurrence
//
//   X_k <- (X_k - x_old + x_new) * e^{+2*pi*i*k/N}
//
// (O(N) per sample, no transform), and a periodic exact FFT refresh
// re-anchors the coefficients so the recurrence's floating-point drift
// stays bounded. Immediately after a refresh the coefficients — and hence
// the extrapolation — are bit-identical to the batch fit over the same
// window; between refreshes they agree within tolerance.
//
// The state is split three ways so that a policy tracking thousands of
// functions pays per function only for what differs between them:
//   - DftTables: the twiddles and the cos/sin of every (bin, forecast step)
//     angle for one (window, horizon) shape. Immutable; shared read-only by
//     every SlidingDft of that shape, across threads too.
//   - SlidingDft: one function's window of samples and its coefficients,
//     stored as separate real and imaginary arrays so the recurrence
//     vectorises (3 * window doubles).
//   - DftScratch: the FFT buffer and bin-ranking workspace. Mutable; one
//     per thread that pushes or extrapolates.
// All storage is preallocated at construction: push() and
// extrapolate_into() never touch the allocator, which the serve-mode
// latency bench (bench_serve_latency) asserts.

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "util/ring_buffer.hpp"

namespace pulse::predict {

class DftTables {
 public:
  /// window must be a power of two (throws std::invalid_argument
  /// otherwise); horizon is the number of minutes every forecast covers.
  DftTables(std::size_t window, std::size_t horizon);

  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

 private:
  friend class SlidingDft;

  std::size_t window_;
  std::size_t horizon_;
  std::vector<double> twiddle_re_;  // cos(2*pi*k/N)
  std::vector<double> twiddle_im_;  // sin(2*pi*k/N)
  std::vector<double> eval_cos_;    // [h * N + j]: cos(2*pi*j*(N+h)/N)
  std::vector<double> eval_sin_;    // [h * N + j]: sin(2*pi*j*(N+h)/N)
};

class DftScratch {
 public:
  DftScratch() = default;
  explicit DftScratch(std::size_t window);

  [[nodiscard]] std::size_t window() const noexcept { return fft_.size(); }

 private:
  friend class SlidingDft;

  std::vector<std::complex<double>> fft_;  // refresh transform buffer
  std::vector<double> magnitude_;          // |X_j|, j in [0, N/2]
  std::vector<std::size_t> rank_;          // bin ranking workspace
  std::vector<std::size_t> bins_;          // kept bins (DC + pairs)
};

class SlidingDft {
 public:
  /// `tables` fixes the window and the forecast horizon. refresh_interval
  /// is the number of pushes between exact FFT re-anchors once the window
  /// is full; 0 picks the default 4*window.
  explicit SlidingDft(std::shared_ptr<const DftTables> tables,
                      std::size_t refresh_interval = 0);

  /// Feeds one sample. O(window) once the window is full, O(1) before
  /// (plus one FFT the moment it fills). Allocation-free. `scratch` must
  /// have this DFT's window (throws std::invalid_argument otherwise).
  void push(double x, DftScratch& scratch);

  /// True once `window` samples have been seen and coefficients exist.
  [[nodiscard]] bool ready() const noexcept { return samples_.size() == window(); }

  [[nodiscard]] std::size_t window() const noexcept { return tables_->window(); }
  [[nodiscard]] std::size_t horizon() const noexcept { return tables_->horizon(); }
  [[nodiscard]] std::size_t samples_seen() const noexcept { return total_pushed_; }

  /// Real and imaginary parts of coefficient k of the current window.
  [[nodiscard]] double coeff_re(std::size_t k) const { return re_.at(k); }
  [[nodiscard]] double coeff_im(std::size_t k) const { return im_.at(k); }

  /// Harmonic extrapolation matching predict::harmonic_extrapolate over
  /// the current window: keeps DC plus the `harmonics` largest-magnitude
  /// positive-frequency pairs and evaluates the trigonometric model at the
  /// horizon() indices past the window's end. Writes out[0..horizon());
  /// `out` must already hold at least horizon() elements (the caller
  /// preallocates — this method is allocation-free and usable from the
  /// hot path). Requires ready().
  void extrapolate_into(std::size_t harmonics, std::vector<double>& out,
                        DftScratch& scratch) const;

 private:
  void refresh(DftScratch& scratch);  // exact FFT over the current window
  void check_scratch(const DftScratch& scratch) const;

  std::shared_ptr<const DftTables> tables_;
  std::size_t refresh_interval_;
  std::size_t pushes_since_refresh_ = 0;
  std::size_t total_pushed_ = 0;
  util::RingBuffer<double> samples_;
  std::vector<double> re_;  // current window's DFT, real parts
  std::vector<double> im_;  // current window's DFT, imaginary parts
};

}  // namespace pulse::predict
