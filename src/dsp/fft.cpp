#include "dassa/dsp/fft.hpp"

#include <cmath>
#include <map>
#include <numbers>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/common/counters.hpp"

namespace dassa::dsp {

namespace {

// Workspace slot convention (see fft.hpp): the engine owns these two.
constexpr std::size_t kSlotBluestein = 0;
constexpr std::size_t kSlotRealPack = 1;

void count_bytes(std::size_t bytes) {
  static Counter& allocated =
      global_counters().counter(counters::kDspFftBytesAllocated);
  allocated.add(bytes);
}

}  // namespace

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

std::vector<cplx>& FftWorkspace::cbuf(std::size_t slot, std::size_t n) {
  auto& v = cplx_.at(slot);
  if (v.capacity() < n) {
    count_bytes((n - v.capacity()) * sizeof(cplx));
    v.reserve(n);
  }
  v.resize(n);
  return v;
}

std::vector<double>& FftWorkspace::rbuf(std::size_t slot, std::size_t n) {
  auto& v = real_.at(slot);
  if (v.capacity() < n) {
    count_bytes((n - v.capacity()) * sizeof(double));
    v.reserve(n);
  }
  v.resize(n);
  return v;
}

FftWorkspace& fft_workspace() {
  thread_local FftWorkspace ws;
  return ws;
}

// ---------------------------------------------------------------------------
// Plan construction + cache
// ---------------------------------------------------------------------------

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
  DASSA_CHECK(n >= 1, "FFT plan requires length >= 1");
  if (pow2_ && n_ > 1) {
    twiddles_.resize(n_ / 2);
    for (std::size_t k = 0; k < twiddles_.size(); ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(n_);
      twiddles_[k] = cplx(std::cos(angle), std::sin(angle));
    }
    bitrev_.resize(n_);
    for (std::size_t i = 1, j = 0; i < n_; ++i) {
      std::size_t bit = n_ >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      bitrev_[i] = static_cast<std::uint32_t>(j);
    }
  }
  if (!pow2_) {
    // Bluestein: chirp c[k] = e^{-pi i k^2 / n} and the spectrum of the
    // padded filter b[k] = conj(c[|k| mod n]) -- both depend only on n,
    // so the per-call cost drops from three FFTs plus 2n sin/cos pairs
    // to two FFTs and no trigonometry.
    m_ = next_pow2(2 * n_ - 1);
    sub_ = FftPlan::get(m_);
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      // k^2 mod 2n avoids precision loss for large k.
      const std::size_t k2 = (k * k) % (2 * n_);
      const double angle = -std::numbers::pi * static_cast<double>(k2) /
                           static_cast<double>(n_);
      chirp_[k] = cplx(std::cos(angle), std::sin(angle));
    }
    chirp_spec_.assign(m_, cplx(0.0, 0.0));
    for (std::size_t k = 0; k < n_; ++k) {
      chirp_spec_[k] = std::conj(chirp_[k]);
    }
    for (std::size_t k = 1; k < n_; ++k) {
      chirp_spec_[m_ - k] = std::conj(chirp_[k]);
    }
    sub_->radix2(chirp_spec_.data(), /*invert=*/false);
  }
  if (n_ % 2 == 0) {
    // Packed real-input transform: one complex FFT of length n/2 plus
    // an O(n) recombination with these twiddles.
    const std::size_t h = n_ / 2;
    half_ = FftPlan::get(h);
    rtw_.resize(h + 1);
    for (std::size_t k = 0; k <= h; ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(n_);
      rtw_[k] = cplx(std::cos(angle), std::sin(angle));
    }
  }
  count_bytes(twiddles_.capacity() * sizeof(cplx) +
              bitrev_.capacity() * sizeof(std::uint32_t) +
              chirp_.capacity() * sizeof(cplx) +
              chirp_spec_.capacity() * sizeof(cplx) +
              rtw_.capacity() * sizeof(cplx));
}

namespace {

/// Process-wide plan cache. A named struct (not two function-local
/// statics) so the map can carry its DASSA_GUARDED_BY annotation.
struct PlanCache {
  SharedMutex mu;
  std::map<std::size_t, std::shared_ptr<const FftPlan>> plans
      DASSA_GUARDED_BY(mu);
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const FftPlan> FftPlan::get(std::size_t n) {
  DASSA_CHECK(n >= 1, "FFT plan requires length >= 1");
  PlanCache& cache = plan_cache();
  static Counter& hits = global_counters().counter(counters::kDspFftPlanHits);
  static Counter& misses =
      global_counters().counter(counters::kDspFftPlanMisses);
  {
    ReaderLock lock(cache.mu);
    auto it = cache.plans.find(n);
    if (it != cache.plans.end()) {
      hits.add();
      return it->second;
    }
  }
  // Build outside the lock: construction recurses into get() for the
  // half-size and Bluestein sub-plans, and may be slow for large n.
  std::shared_ptr<const FftPlan> built(new FftPlan(n));
  WriterLock lock(cache.mu);
  auto [it, inserted] = cache.plans.emplace(n, std::move(built));
  if (inserted) {
    misses.add();
  } else {
    // Another thread won the race; its plan is the cached one.
    hits.add();
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Complex transforms
// ---------------------------------------------------------------------------

/// Iterative radix-2 Cooley-Tukey using the precomputed permutation and
/// twiddles; `invert` runs the conjugate transform without the 1/n
/// scale.
void FftPlan::radix2(cplx* x, bool invert) const {
  const std::size_t n = n_;
  if (n <= 1) return;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        cplx w = twiddles_[k * stride];
        if (invert) w = std::conj(w);
        const cplx u = x[i + k];
        const cplx v = x[i + k + half] * w;
        x[i + k] = u + v;
        x[i + k + half] = u - v;
      }
    }
  }
}

/// Bluestein forward transform as a convolution against the cached
/// chirp filter spectrum. The only per-call buffer is one workspace
/// slot of length m.
void FftPlan::bluestein_forward(cplx* x, FftWorkspace& ws) const {
  std::vector<cplx>& a = ws.cbuf(kSlotBluestein, m_);
  for (std::size_t k = 0; k < n_; ++k) a[k] = x[k] * chirp_[k];
  for (std::size_t k = n_; k < m_; ++k) a[k] = cplx(0.0, 0.0);
  sub_->radix2(a.data(), /*invert=*/false);
  for (std::size_t k = 0; k < m_; ++k) a[k] *= chirp_spec_[k];
  sub_->radix2(a.data(), /*invert=*/true);
  const double scale = 1.0 / static_cast<double>(m_);
  for (std::size_t k = 0; k < n_; ++k) {
    x[k] = a[k] * scale * chirp_[k];
  }
}

void FftPlan::forward(cplx* x, FftWorkspace& ws) const {
  if (n_ <= 1) return;
  if (pow2_) {
    radix2(x, /*invert=*/false);
  } else {
    bluestein_forward(x, ws);
  }
}

void FftPlan::inverse(cplx* x, FftWorkspace& ws) const {
  const double scale = 1.0 / static_cast<double>(n_);
  if (n_ <= 1) return;
  if (pow2_) {
    radix2(x, /*invert=*/true);
    for (std::size_t k = 0; k < n_; ++k) x[k] *= scale;
    return;
  }
  // IDFT(x) = conj(DFT(conj(x))) / n, so the cached forward chirp
  // spectrum serves both directions.
  for (std::size_t k = 0; k < n_; ++k) x[k] = std::conj(x[k]);
  bluestein_forward(x, ws);
  for (std::size_t k = 0; k < n_; ++k) x[k] = std::conj(x[k]) * scale;
}

// ---------------------------------------------------------------------------
// Real transforms (packed half-size complex trick)
// ---------------------------------------------------------------------------

void FftPlan::forward_real(const double* x, cplx* out,
                           FftWorkspace& ws) const {
  if (n_ == 1) {
    out[0] = cplx(x[0], 0.0);
    return;
  }
  if (n_ % 2 != 0) {
    // Odd lengths (necessarily Bluestein or trivial): full complex
    // transform of the real signal, keep the non-redundant half.
    std::vector<cplx>& buf = ws.cbuf(kSlotRealPack, n_);
    for (std::size_t i = 0; i < n_; ++i) buf[i] = cplx(x[i], 0.0);
    forward(buf.data(), ws);
    for (std::size_t k = 0; k < half_bins(); ++k) out[k] = buf[k];
    return;
  }
  // Pack even/odd samples into one complex signal of half the length:
  // z[j] = x[2j] + i x[2j+1]. With E/O the DFTs of the even/odd
  // subsequences, Z[k] = E[k] + i O[k] and conjugate symmetry of E and
  // O recovers X[k] = E[k] + w^k O[k] for k = 0 .. n/2.
  const std::size_t h = n_ / 2;
  std::vector<cplx>& z = ws.cbuf(kSlotRealPack, h);
  for (std::size_t j = 0; j < h; ++j) z[j] = cplx(x[2 * j], x[2 * j + 1]);
  half_->forward(z.data(), ws);
  out[0] = cplx(z[0].real() + z[0].imag(), 0.0);
  out[h] = cplx(z[0].real() - z[0].imag(), 0.0);
  for (std::size_t k = 1; k < h; ++k) {
    const cplx zk = z[k];
    const cplx zc = std::conj(z[h - k]);
    const cplx even = 0.5 * (zk + zc);
    const cplx odd = cplx(0.0, -0.5) * (zk - zc);
    out[k] = even + rtw_[k] * odd;
  }
}

void FftPlan::inverse_real(const cplx* spec, double* out,
                           FftWorkspace& ws) const {
  if (n_ == 1) {
    out[0] = spec[0].real();
    return;
  }
  if (n_ % 2 != 0) {
    // Hermitian-extend to the full spectrum and run a complex inverse.
    std::vector<cplx>& buf = ws.cbuf(kSlotRealPack, n_);
    const std::size_t hb = half_bins();
    for (std::size_t k = 0; k < hb; ++k) buf[k] = spec[k];
    for (std::size_t k = hb; k < n_; ++k) buf[k] = std::conj(spec[n_ - k]);
    inverse(buf.data(), ws);
    for (std::size_t i = 0; i < n_; ++i) out[i] = buf[i].real();
    return;
  }
  // Invert the packing of forward_real: rebuild Z[k] = E[k] + i O[k]
  // from the half spectrum, inverse-transform at half length, and
  // interleave the real/imaginary parts back into the signal.
  const std::size_t h = n_ / 2;
  std::vector<cplx>& z = ws.cbuf(kSlotRealPack, h);
  for (std::size_t k = 0; k < h; ++k) {
    const cplx xk = spec[k];
    const cplx xc = std::conj(spec[h - k]);
    const cplx even = 0.5 * (xk + xc);
    const cplx odd = std::conj(rtw_[k]) * (0.5 * (xk - xc));
    z[k] = even + cplx(0.0, 1.0) * odd;
  }
  half_->inverse(z.data(), ws);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = z[j].real();
    out[2 * j + 1] = z[j].imag();
  }
}

// ---------------------------------------------------------------------------
// Free-function entry points
// ---------------------------------------------------------------------------

std::size_t next_pow2(std::size_t n) {
  DASSA_CHECK(n >= 1, "next_pow2 requires n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_inplace(std::vector<cplx>& x) {
  if (x.empty()) return;
  FftPlan::get(x.size())->forward(x.data(), fft_workspace());
}

void ifft_inplace(std::vector<cplx>& x) {
  if (x.empty()) return;
  FftPlan::get(x.size())->inverse(x.data(), fft_workspace());
}

std::vector<cplx> rfft(std::span<const double> x) {
  DASSA_TRACE_SPAN("dsp", "dsp.rfft");
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  if (n == 0) return out;
  const auto plan = FftPlan::get(n);
  plan->forward_real(x.data(), out.data(), fft_workspace());
  // Mirror the non-redundant half into the negative frequencies.
  for (std::size_t k = 1; k < (n + 1) / 2; ++k) {
    out[n - k] = std::conj(out[k]);
  }
  return out;
}

std::vector<cplx> rfft_half(std::span<const double> x) {
  DASSA_TRACE_SPAN("dsp", "dsp.rfft_half");
  if (x.empty()) return {};
  const auto plan = FftPlan::get(x.size());
  std::vector<cplx> out(plan->half_bins());
  plan->forward_real(x.data(), out.data(), fft_workspace());
  return out;
}

std::vector<double> irfft_half(std::span<const cplx> spectrum,
                               std::size_t n) {
  DASSA_TRACE_SPAN("dsp", "dsp.irfft_half");
  if (n == 0) {
    DASSA_CHECK(spectrum.empty(), "length-0 inverse of non-empty spectrum");
    return {};
  }
  const auto plan = FftPlan::get(n);
  DASSA_CHECK(spectrum.size() == plan->half_bins(),
              "irfft_half spectrum must hold n/2 + 1 bins");
  std::vector<double> out(n);
  plan->inverse_real(spectrum.data(), out.data(), fft_workspace());
  return out;
}

std::vector<std::vector<cplx>> rfft_half_batch(std::span<const double> data,
                                               std::size_t rows,
                                               std::size_t cols) {
  DASSA_TRACE_SPAN("dsp", "dsp.rfft_half_batch");
  DASSA_CHECK(data.size() == rows * cols,
              "batch buffer must hold rows * cols samples");
  std::vector<std::vector<cplx>> out(rows);
  if (rows == 0 || cols == 0) return out;
  const auto plan = FftPlan::get(cols);
  FftWorkspace& ws = fft_workspace();
  for (std::size_t r = 0; r < rows; ++r) {
    out[r].resize(plan->half_bins());
    plan->forward_real(data.data() + r * cols, out[r].data(), ws);
  }
  return out;
}

std::vector<double> irfft_real(std::span<const cplx> spectrum) {
  std::vector<cplx> c(spectrum.begin(), spectrum.end());
  ifft_inplace(c);
  std::vector<double> out(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) out[i] = c[i].real();
  return out;
}

std::vector<cplx> fft(std::vector<cplx> x) {
  fft_inplace(x);
  return x;
}

std::vector<cplx> ifft(std::vector<cplx> x) {
  ifft_inplace(x);
  return x;
}

}  // namespace dassa::dsp
