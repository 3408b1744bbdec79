#include "dassa/dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "dassa/common/error.hpp"
#include "dassa/common/trace.hpp"

namespace dassa::dsp {

double abscorr(std::span<const double> a, std::span<const double> b) {
  DASSA_CHECK(a.size() == b.size(), "abscorr requires equal lengths");
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return std::abs(dot) / std::sqrt(na * nb);
}

double abscorr(std::span<const cplx> a, std::span<const cplx> b) {
  DASSA_CHECK(a.size() == b.size(), "abscorr requires equal lengths");
  cplx dot(0.0, 0.0);
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * std::conj(b[i]);
    na += std::norm(a[i]);
    nb += std::norm(b[i]);
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return std::abs(dot) / std::sqrt(na * nb);
}

std::vector<double> xcorr_full(std::span<const double> a,
                               std::span<const double> b) {
  DASSA_TRACE_SPAN("dsp", "dsp.xcorr_full");
  DASSA_CHECK(!a.empty() && !b.empty(), "xcorr of empty signal");
  const std::size_t n = a.size() + b.size() - 1;
  const std::size_t m = next_pow2(n);
  const auto plan = FftPlan::get(m);
  FftWorkspace& ws = fft_workspace();

  // Real inputs: two half-spectrum transforms of the zero-padded
  // signals instead of two full complex ones, all in workspace buffers.
  std::vector<double>& ra = ws.rbuf(0, m);
  std::vector<double>& rb = ws.rbuf(1, m);
  std::copy(a.begin(), a.end(), ra.begin());
  std::fill(ra.begin() + static_cast<std::ptrdiff_t>(a.size()), ra.end(), 0.0);
  // Time-reverse b so that convolution computes correlation.
  for (std::size_t i = 0; i < b.size(); ++i) rb[i] = b[b.size() - 1 - i];
  std::fill(rb.begin() + static_cast<std::ptrdiff_t>(b.size()), rb.end(), 0.0);

  // Complex slots 3-4: forward_real rewrites the engine's slots 0-2.
  const std::size_t bins = plan->half_bins();
  std::vector<cplx>& fa = ws.cbuf(3, bins);
  std::vector<cplx>& fb = ws.cbuf(4, bins);
  plan->forward_real(ra.data(), fa.data(), ws);
  plan->forward_real(rb.data(), fb.data(), ws);
  for (std::size_t i = 0; i < bins; ++i) fa[i] *= fb[i];

  std::vector<double>& conv = ws.rbuf(2, m);
  plan->inverse_real(fa.data(), conv.data(), ws);
  return {conv.begin(), conv.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::vector<double> xcorr_spectra(std::span<const cplx> a,
                                  std::span<const cplx> b) {
  DASSA_CHECK(a.size() == b.size(), "spectra must have equal length");
  if (a.empty()) return {};
  const auto plan = FftPlan::get(a.size());
  FftWorkspace& ws = fft_workspace();
  // Slot 3: the engine's own slots 0-2 are rewritten by the inverse.
  std::vector<cplx>& prod = ws.cbuf(3, a.size());
  for (std::size_t i = 0; i < a.size(); ++i) prod[i] = a[i] * std::conj(b[i]);
  plan->inverse(prod.data(), ws);
  std::vector<double> out(prod.size());
  for (std::size_t i = 0; i < prod.size(); ++i) out[i] = prod[i].real();
  return out;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  DASSA_CHECK(a.size() == b.size() && !a.empty(),
              "pearson requires equal non-empty lengths");
  const double n = static_cast<double>(a.size());
  double ma = 0.0;
  double mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace dassa::dsp
