// DasLib: fast Fourier transform (Das_fft / Das_ifft in paper Table II).
//
// From-scratch FFT since no FFTW is available on the target system:
// self-sorting mixed-radix (4, 2, 3, 5) Stockham passes for every
// 5-smooth length, powers of two included, with Bluestein's chirp-z
// algorithm for the remaining lengths. Resampled 1-minute DAS records
// are 5-smooth (60000 = 2^5 * 3 * 5^4), so real pipelines never pay
// for Bluestein.
//
// The engine is organised FFTW-style around two objects:
//
//  * FftPlan -- an immutable, size-keyed plan holding everything that
//    depends only on the transform length: the radix schedule and
//    per-pass twiddles, and (for lengths with a prime factor above 5)
//    the Bluestein chirp together with the precomputed spectrum of its
//    padded filter. Plans are built once per size and shared through a
//    read-mostly cache (dassa::SharedMutex); DAS pipelines transform
//    ~10^4 identical-length channels, so after the first row every
//    lookup is a shared-lock hit.
//
//  * FftWorkspace -- a per-thread scratch arena. Buffers grow to the
//    high-water mark of the sizes seen on that thread and are then
//    reused, so steady-state transforms of a repeated length perform
//    zero heap allocations (asserted by tests via dsp_stats()).
//    Complex slots 0-2 are reserved by the engine itself (0 Bluestein
//    convolution, 1 real packing, 2 Stockham ping-pong); kernel code
//    (xcorr, ...) uses complex slots >= 3. No real slot is reserved.
//
// All entry points are thread-safe: plans are immutable after
// construction and each thread owns its workspace, as DasLib functions
// run concurrently inside ApplyMT/HAEE threads.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace dassa::dsp {

using cplx = std::complex<double>;

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// True iff n is a power of two (n >= 1).
[[nodiscard]] bool is_pow2(std::size_t n);

/// Per-thread scratch arena. Buffers only ever grow (to the largest
/// size requested on this thread), so repeated transforms allocate
/// nothing after warm-up. Obtain the calling thread's arena with
/// fft_workspace().
class FftWorkspace {
 public:
  static constexpr std::size_t kComplexSlots = 6;
  static constexpr std::size_t kRealSlots = 6;

  /// Complex scratch buffer `slot`, resized to n elements (contents
  /// unspecified). Slots 0-2 are reserved for the FFT engine itself: a
  /// caller holding one of them across a transform would have it
  /// overwritten.
  std::vector<cplx>& cbuf(std::size_t slot, std::size_t n);

  /// Real scratch buffer `slot`, resized to n elements (contents
  /// unspecified).
  std::vector<double>& rbuf(std::size_t slot, std::size_t n);

 private:
  std::array<std::vector<cplx>, kComplexSlots> cplx_{};
  std::array<std::vector<double>, kRealSlots> real_{};
};

/// The calling thread's workspace (thread_local).
[[nodiscard]] FftWorkspace& fft_workspace();

/// Cached transform plan for one length. Immutable after construction;
/// safe to share across threads. Obtain via FftPlan::get().
class FftPlan {
 public:
  /// Fetch (or build and cache) the plan for length n >= 1. Lookups
  /// take a shared lock; only the first call per size builds tables.
  [[nodiscard]] static std::shared_ptr<const FftPlan> get(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Number of non-redundant bins of a real transform: n/2 + 1.
  [[nodiscard]] std::size_t half_bins() const noexcept { return n_ / 2 + 1; }

  /// In-place forward DFT of x[0..n), unnormalised.
  void forward(cplx* x, FftWorkspace& ws) const;

  /// In-place inverse DFT of x[0..n), normalised by 1/n.
  void inverse(cplx* x, FftWorkspace& ws) const;

  /// Real-input forward DFT: writes half_bins() bins (k = 0 .. n/2) to
  /// `out`. Even lengths use the packed half-size complex transform;
  /// the remaining n/2-1 bins of the full spectrum are the conjugate
  /// mirror. `out` must not alias `x`.
  void forward_real(const double* x, cplx* out, FftWorkspace& ws) const;

  /// Inverse of forward_real: consumes half_bins() bins (the implied
  /// full spectrum is the Hermitian extension) and writes n real
  /// samples, normalised by 1/n. `out` must not alias `spec`.
  void inverse_real(const cplx* spec, double* out, FftWorkspace& ws) const;

  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

 private:
  explicit FftPlan(std::size_t n);

  /// One self-sorting Stockham pass: `radix`-point DFTs over the
  /// sub-sequences of stride `stride`, `m` twiddle groups.
  struct Pass {
    std::size_t radix;   // 2, 3, 4 or 5
    std::size_t m;       // sub-transform length left after this pass
    std::size_t stride;  // product of the radices of earlier passes
    std::size_t tw;      // offset of this pass's twiddles in twiddles_
  };

  void stockham(cplx* x, cplx* scratch) const;
  void bluestein_forward(cplx* x, FftWorkspace& ws) const;

  std::size_t n_;

  // Mixed-radix tables (5-smooth lengths only). Pass p's twiddle
  // w^{jk} (w = e^{-2 pi i / (radix m)}, j < m, 1 <= k < radix) sits
  // at twiddles_[tw + j (radix - 1) + k - 1].
  std::vector<Pass> passes_;
  std::vector<cplx> twiddles_;

  // Bluestein tables (lengths with a prime factor above 5 only).
  std::size_t m_ = 0;                   // padded size: next_pow2(2n-1)
  std::shared_ptr<const FftPlan> sub_;  // Stockham plan of size m
  std::vector<cplx> chirp_;             // e^{-pi i k^2 / n}, k < n
  std::vector<cplx> chirp_spec_;        // FFT_m of the padded conj chirp

  // Real-input recombination tables (even lengths only).
  std::shared_ptr<const FftPlan> half_;  // plan of size n/2
  std::vector<cplx> rtw_;                // e^{-2 pi i k / n}, k <= n/2
};

/// In-place forward DFT of arbitrary length (unnormalised):
/// X[k] = sum_j x[j] e^{-2 pi i jk / n}.
void fft_inplace(std::vector<cplx>& x);

/// In-place inverse DFT of arbitrary length, normalised by 1/n.
void ifft_inplace(std::vector<cplx>& x);

/// Forward DFT of a real signal; returns all n complex bins. The upper
/// half is the conjugate mirror of the lower half (computed via the
/// half-spectrum transform, so this costs one complex FFT of length
/// n/2, not n). Kept for consumers that index negative frequencies;
/// new code should prefer rfft_half.
[[nodiscard]] std::vector<cplx> rfft(std::span<const double> x);

/// Real-input forward DFT returning only the n/2 + 1 non-redundant
/// bins (k = 0 .. n/2).
[[nodiscard]] std::vector<cplx> rfft_half(std::span<const double> x);

/// Inverse of rfft_half: reconstructs the length-n real signal from
/// its n/2 + 1 half-spectrum bins. `n` disambiguates even/odd lengths
/// (both n and n+1 produce n/2 + 1 bins when n is even).
[[nodiscard]] std::vector<double> irfft_half(std::span<const cplx> spectrum,
                                             std::size_t n);

/// Batched row transform: `rows` independent real transforms of length
/// `cols` over a contiguous row-major buffer (data.size() == rows *
/// cols), sharing one plan and the calling thread's workspace. Returns
/// one half spectrum (cols/2 + 1 bins) per row.
[[nodiscard]] std::vector<std::vector<cplx>> rfft_half_batch(
    std::span<const double> data, std::size_t rows, std::size_t cols);

/// Inverse DFT returning the real part only (for spectra known to be
/// conjugate-symmetric up to rounding).
[[nodiscard]] std::vector<double> irfft_real(std::span<const cplx> spectrum);

/// Convenience copies of the in-place transforms.
[[nodiscard]] std::vector<cplx> fft(std::vector<cplx> x);
[[nodiscard]] std::vector<cplx> ifft(std::vector<cplx> x);

}  // namespace dassa::dsp
