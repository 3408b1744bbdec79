#include "dassa/dsp/fft.hpp"

#include <cmath>
#include <map>
#include <numbers>
#include <utility>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/common/counters.hpp"

namespace dassa::dsp {

namespace {

// Workspace slot convention (see fft.hpp): the engine owns slots 0-2.
constexpr std::size_t kSlotBluestein = 0;
constexpr std::size_t kSlotRealPack = 1;
constexpr std::size_t kSlotStockham = 2;

void count_bytes(std::size_t bytes) {
  static Counter& allocated =
      global_counters().counter(counters::kDspFftBytesAllocated);
  allocated.add(bytes);
}

/// e^{-2 pi i k / n}.
cplx unit_root(std::size_t k, std::size_t n) {
  const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n);
  return {std::cos(angle), std::sin(angle)};
}

// Complex products written out in full: std::complex's operator* adds
// an Inf/NaN test with a __muldc3 fallback call to every product.
inline cplx mul(cplx a, cplx b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

/// a * -i.
inline cplx mul_neg_i(cplx a) { return {a.imag(), -a.real()}; }

/// In-place forward DFT of P points.
template <std::size_t P>
inline void butterfly(cplx (&a)[P]) {
  if constexpr (P == 2) {
    const cplx t = a[1];
    a[1] = a[0] - t;
    a[0] = a[0] + t;
  } else if constexpr (P == 3) {
    constexpr double kS = 0.86602540378443864676;  // sin(2 pi / 3)
    const cplx t1 = a[1] + a[2];
    const cplx t2 = a[0] - 0.5 * t1;
    const cplx t3 = mul_neg_i(kS * (a[1] - a[2]));
    a[0] = a[0] + t1;
    a[1] = t2 + t3;
    a[2] = t2 - t3;
  } else if constexpr (P == 4) {
    const cplx t0 = a[0] + a[2];
    const cplx t1 = a[0] - a[2];
    const cplx t2 = a[1] + a[3];
    const cplx t3 = mul_neg_i(a[1] - a[3]);
    a[0] = t0 + t2;
    a[1] = t1 + t3;
    a[2] = t0 - t2;
    a[3] = t1 - t3;
  } else {
    static_assert(P == 5, "radices are 2, 3, 4 and 5");
    constexpr double kC1 = 0.30901699437494742410;   // cos(2 pi / 5)
    constexpr double kC2 = -0.80901699437494742410;  // cos(4 pi / 5)
    constexpr double kS1 = 0.95105651629515357212;   // sin(2 pi / 5)
    constexpr double kS2 = 0.58778525229247312917;   // sin(4 pi / 5)
    const cplx t1 = a[1] + a[4];
    const cplx t2 = a[2] + a[3];
    const cplx t3 = a[1] - a[4];
    const cplx t4 = a[2] - a[3];
    const cplx c1 = a[0] + kC1 * t1 + kC2 * t2;
    const cplx c2 = a[0] + kC2 * t1 + kC1 * t2;
    const cplx s1 = mul_neg_i(kS1 * t3 + kS2 * t4);
    const cplx s2 = mul_neg_i(kS2 * t3 - kS1 * t4);
    a[0] = a[0] + t1 + t2;
    a[1] = c1 + s1;
    a[4] = c1 - s1;
    a[2] = c2 + s2;
    a[3] = c2 - s2;
  }
}

/// One P-point DFT: inputs x[r in_step], outputs y[k out_step], the
/// k-th twiddled by w[k - 1] when kTwiddle.
template <std::size_t P, bool kTwiddle>
inline void dft_column(const cplx* x, std::size_t in_step, cplx* y,
                       std::size_t out_step, const cplx* w) {
  // Unrolled at -O2 as well as -O3, so a[] stays in registers.
  cplx a[P];
#pragma GCC unroll 5
  for (std::size_t r = 0; r < P; ++r) a[r] = x[r * in_step];
  butterfly<P>(a);
  y[0] = a[0];
#pragma GCC unroll 5
  for (std::size_t k = 1; k < P; ++k) {
    y[k * out_step] = kTwiddle ? mul(a[k], w[k - 1]) : a[k];
  }
}

/// One decimation-in-frequency Stockham pass: for each twiddle group
/// j < m and offset q < s, the P inputs x[q + s (j + r m)] are
/// transformed and written, twiddled by w^{jk}, to y[q + s (P j + k)].
/// With m == 1 the input and output index sets coincide, so the last
/// pass may run in place (x == y). Group j = 0 has unit twiddles.
template <std::size_t P>
void stockham_pass(const cplx* x, cplx* y, std::size_t m, std::size_t s,
                   const cplx* tw) {
  const std::size_t in_step = s * m;
  for (std::size_t q = 0; q < s; ++q) {
    dft_column<P, false>(x + q, in_step, y + q, s, nullptr);
  }
  for (std::size_t j = 1; j < m; ++j) {
    const cplx* w = tw + j * (P - 1);
    const cplx* xj = x + s * j;
    cplx* yj = y + s * P * j;
    for (std::size_t q = 0; q < s; ++q) {
      dft_column<P, true>(xj + q, in_step, yj + q, s, w);
    }
  }
}

/// Radix schedule for n, or empty if n has a prime factor above 5:
/// fours first, then at most one two, then threes and fives.
std::vector<std::size_t> radices(std::size_t n) {
  std::vector<std::size_t> out;
  while (n % 4 == 0) {
    out.push_back(4);
    n /= 4;
  }
  if (n % 2 == 0) {
    out.push_back(2);
    n /= 2;
  }
  for (const std::size_t p : {std::size_t{3}, std::size_t{5}}) {
    while (n % p == 0) {
      out.push_back(p);
      n /= p;
    }
  }
  if (n != 1) out.clear();
  return out;
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

FftPlan::FftPlan(std::size_t n) : n_(n) {
  DASSA_CHECK(n >= 1, "FFT plan requires length >= 1");
  const std::vector<std::size_t> schedule = radices(n_);
  if (n_ > 1 && !schedule.empty()) {
    // Pass i splits sub-transforms of length len = radix * m; its
    // twiddles are w_len^{jk} for j < m, 1 <= k < radix.
    std::size_t len = n_;
    std::size_t stride = 1;
    for (const std::size_t p : schedule) {
      const std::size_t m = len / p;
      passes_.push_back({p, m, stride, twiddles_.size()});
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t k = 1; k < p; ++k) {
          twiddles_.push_back(unit_root(j * k, len));
        }
      }
      len = m;
      stride *= p;
    }
  } else if (n_ > 1) {
    // Bluestein: chirp c[k] = e^{-pi i k^2 / n} and the spectrum of the
    // padded filter b[k] = conj(c[|k| mod n]) -- both depend only on n,
    // so the per-call cost is two FFTs of size m and no trigonometry.
    m_ = next_pow2(2 * n_ - 1);
    sub_ = FftPlan::get(m_);
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      // k^2 mod 2n avoids precision loss for large k.
      chirp_[k] = unit_root((k * k) % (2 * n_), 2 * n_);
    }
    chirp_spec_.assign(m_, cplx(0.0, 0.0));
    for (std::size_t k = 0; k < n_; ++k) {
      chirp_spec_[k] = std::conj(chirp_[k]);
    }
    for (std::size_t k = 1; k < n_; ++k) {
      chirp_spec_[m_ - k] = std::conj(chirp_[k]);
    }
    // Plan-local scratch: the caller may hold this thread's workspace.
    std::vector<cplx> scratch(m_);
    sub_->stockham(chirp_spec_.data(), scratch.data());
  }
  if (n_ % 2 == 0) {
    // Packed real-input transform: one complex FFT of length n/2 plus
    // an O(n) recombination with these twiddles.
    const std::size_t h = n_ / 2;
    half_ = FftPlan::get(h);
    rtw_.resize(h + 1);
    for (std::size_t k = 0; k <= h; ++k) rtw_[k] = unit_root(k, n_);
  }
  count_bytes(passes_.capacity() * sizeof(Pass) +
              twiddles_.capacity() * sizeof(cplx) +
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

/// Runs the Stockham passes, ping-ponging between x and scratch (n
/// elements; unused when there is a single pass). With an odd pass
/// count the last pass (m == 1) runs in place, so the result always
/// ends in x without a copy.
void FftPlan::stockham(cplx* x, cplx* scratch) const {
  cplx* src = x;
  cplx* dst = scratch;
  const std::size_t count = passes_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const Pass& p = passes_[i];
    if (i + 1 == count && count % 2 == 1) dst = src;
    const cplx* tw = twiddles_.data() + p.tw;
    switch (p.radix) {
      case 2: stockham_pass<2>(src, dst, p.m, p.stride, tw); break;
      case 3: stockham_pass<3>(src, dst, p.m, p.stride, tw); break;
      case 4: stockham_pass<4>(src, dst, p.m, p.stride, tw); break;
      default: stockham_pass<5>(src, dst, p.m, p.stride, tw); break;
    }
    std::swap(src, dst);
  }
}

/// Bluestein forward transform as a convolution against the cached
/// chirp filter spectrum, IDFT(a) = conj(DFT(conj(a))) / m folded into
/// the pointwise product. The only per-call buffers are the workspace
/// slots of length m used here and by the sub-plan.
void FftPlan::bluestein_forward(cplx* x, FftWorkspace& ws) const {
  std::vector<cplx>& a = ws.cbuf(kSlotBluestein, m_);
  for (std::size_t k = 0; k < n_; ++k) a[k] = mul(x[k], chirp_[k]);
  for (std::size_t k = n_; k < m_; ++k) a[k] = cplx(0.0, 0.0);
  sub_->forward(a.data(), ws);
  for (std::size_t k = 0; k < m_; ++k) {
    a[k] = std::conj(mul(a[k], chirp_spec_[k]));
  }
  sub_->forward(a.data(), ws);
  const double scale = 1.0 / static_cast<double>(m_);
  for (std::size_t k = 0; k < n_; ++k) {
    x[k] = mul(std::conj(a[k]) * scale, chirp_[k]);
  }
}

void FftPlan::forward(cplx* x, FftWorkspace& ws) const {
  if (n_ <= 1) return;
  if (passes_.empty()) {
    bluestein_forward(x, ws);
  } else if (passes_.size() == 1) {
    stockham(x, nullptr);
  } else {
    stockham(x, ws.cbuf(kSlotStockham, n_).data());
  }
}

void FftPlan::inverse(cplx* x, FftWorkspace& ws) const {
  if (n_ <= 1) return;
  // IDFT(x) = conj(DFT(conj(x))) / n, so one set of forward tables
  // serves both directions.
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t k = 0; k < n_; ++k) x[k] = std::conj(x[k]);
  forward(x, ws);
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
    // Odd lengths: full complex transform of the real signal, keep the
    // non-redundant half.
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
    // even = (z[k] + conj(z[h-k])) / 2, odd = -i (z[k] - conj(z[h-k])) / 2,
    // in real arithmetic: GCC's pairing of the complex form into vector
    // registers costs a store-forwarding stall per bin.
    const double ar = z[k].real();
    const double ai = z[k].imag();
    const double cr = z[h - k].real();
    const double ci = z[h - k].imag();
    const double er = 0.5 * (ar + cr);
    const double ei = 0.5 * (ai - ci);
    const double odr = 0.5 * (ai + ci);
    const double odi = 0.5 * (cr - ar);
    const double wr = rtw_[k].real();
    const double wi = rtw_[k].imag();
    out[k] = cplx(er + (wr * odr - wi * odi), ei + (wr * odi + wi * odr));
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
    // even = (X[k] + conj(X[h-k])) / 2, odd = conj(w^k) (X[k] -
    // conj(X[h-k])) / 2, z = even + i odd; real arithmetic as above.
    const double ar = spec[k].real();
    const double ai = spec[k].imag();
    const double cr = spec[h - k].real();
    const double ci = spec[h - k].imag();
    const double dr = 0.5 * (ar - cr);
    const double di = 0.5 * (ai + ci);
    const double wr = rtw_[k].real();
    const double wi = rtw_[k].imag();
    const double odr = wr * dr + wi * di;
    const double odi = wr * di - wi * dr;
    z[k] = cplx(0.5 * (ar + cr) - odi, 0.5 * (ai - ci) + odr);
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
