#include "dassa/dsp/filter.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "dassa/common/error.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/dsp/fft.hpp"

namespace dassa::dsp {

namespace {

/// Normalise coefficients to a[0] == 1 and equal lengths n.
struct Normalised {
  std::vector<double> b;
  std::vector<double> a;
  std::size_t n;  // max(|a|, |b|)
};

Normalised normalise(const FilterCoeffs& f) {
  DASSA_CHECK(!f.a.empty() && !f.b.empty(), "filter coefficients empty");
  DASSA_CHECK(f.a[0] != 0.0, "a[0] must be non-zero");
  Normalised out;
  out.n = std::max(f.a.size(), f.b.size());
  out.b.assign(out.n, 0.0);
  out.a.assign(out.n, 0.0);
  for (std::size_t i = 0; i < f.b.size(); ++i) out.b[i] = f.b[i] / f.a[0];
  for (std::size_t i = 0; i < f.a.size(); ++i) out.a[i] = f.a[i] / f.a[0];
  return out;
}

/// Direct-form II transposed recursion for a state length NS known at
/// compile time: coefficients and state live in local arrays, and the
/// state loop is unrolled (at -O2 as well as -O3) so they stay in
/// registers. The per-sample expression order is exactly that of the
/// general loop in run_df2t_raw, so the output is bitwise identical.
template <std::size_t NS>
void df2t_fixed(const Normalised& f, const double* x, std::size_t n,
                std::ptrdiff_t step, double* y, double* z) {
  double b[NS + 1];
  double a[NS + 1];
  double s[NS];
  for (std::size_t k = 0; k <= NS; ++k) {
    b[k] = f.b[k];
    a[k] = f.a[k];
  }
  for (std::size_t k = 0; k < NS; ++k) s[k] = z[k];
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const double xi = x[i * step];
    const double yi = b[0] * xi + s[0];
#pragma GCC unroll 16
    for (std::size_t k = 0; k + 1 < NS; ++k) {
      s[k] = b[k + 1] * xi + s[k + 1] - a[k + 1] * yi;
    }
    s[NS - 1] = b[NS] * xi - a[NS] * yi;
    y[i * step] = yi;
  }
  for (std::size_t k = 0; k < NS; ++k) z[k] = s[k];
}

using Df2tKernel = void (*)(const Normalised&, const double*, std::size_t,
                            std::ptrdiff_t, double*, double*);

template <std::size_t... I>
constexpr std::array<Df2tKernel, sizeof...(I)> df2t_table(
    std::index_sequence<I...>) {
  return {&df2t_fixed<I + 1>...};
}

/// Fixed-length kernels for state lengths 1..16: Butterworth bandpass
/// up to order 8 (state length 2 * order).
constexpr std::array<Df2tKernel, 16> kDf2tFixed =
    df2t_table(std::make_index_sequence<16>{});

/// Direct-form II transposed pass over the n samples x[i * step] into
/// y[i * step] with state z[0..f.n-1); step is +1, or -1 to run
/// backwards from x. Each step reads x before writing y, so x and y
/// may alias (in-place filtering), which filtfilt exploits to run both
/// passes inside one workspace buffer.
void run_df2t_raw(const Normalised& f, const double* x, std::size_t n,
                  std::ptrdiff_t step, double* y, double* z) {
  const std::size_t ns = f.n - 1;
  if (ns >= 1 && ns <= kDf2tFixed.size()) {
    kDf2tFixed[ns - 1](f, x, n, step, y, z);
    return;
  }
  // Pure gains and filters longer than the table.
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const double xi = x[i * step];
    const double yi = f.b[0] * xi + (ns > 0 ? z[0] : 0.0);
    for (std::size_t s = 0; s + 1 < ns; ++s) {
      z[s] = f.b[s + 1] * xi + z[s + 1] - f.a[s + 1] * yi;
    }
    if (ns > 0) {
      z[ns - 1] = f.b[ns] * xi - f.a[ns] * yi;
    }
    y[i * step] = yi;
  }
}

std::vector<double> run_df2t(const Normalised& f, std::span<const double> x,
                             std::vector<double>& z) {
  DASSA_CHECK(z.size() == f.n - 1, "initial state has wrong length");
  std::vector<double> y(x.size());
  run_df2t_raw(f, x.data(), x.size(), 1, y.data(), z.data());
  return y;
}

std::vector<double> steady_state_zi(const Normalised& nf) {
  // Direct-form II transposed steady state for unit input. With
  // y_ss = sum(b)/sum(a), the state recurrence at steady state is
  //   z[i] = b[i+1] - a[i+1]*y_ss + z[i+1],
  // solved by back-substitution. (For filters with sum(a) == 0 --
  // not produced by the Butterworth designer -- y_ss is taken as 0.)
  const std::size_t ns = nf.n - 1;
  std::vector<double> zi(ns, 0.0);
  if (ns == 0) return zi;
  double sum_b = 0.0;
  double sum_a = 0.0;
  for (double v : nf.b) sum_b += v;
  for (double v : nf.a) sum_a += v;
  const double y_ss = (sum_a != 0.0) ? sum_b / sum_a : 0.0;
  zi[ns - 1] = nf.b[ns] - nf.a[ns] * y_ss;
  for (std::size_t i = ns - 1; i-- > 0;) {
    zi[i] = nf.b[i + 1] - nf.a[i + 1] * y_ss + zi[i + 1];
  }
  return zi;
}

}  // namespace

std::vector<double> lfilter(const FilterCoeffs& f, std::span<const double> x) {
  const Normalised nf = normalise(f);
  std::vector<double> z(nf.n - 1, 0.0);
  return run_df2t(nf, x, z);
}

std::vector<double> lfilter(const FilterCoeffs& f, std::span<const double> x,
                            std::vector<double>& zi) {
  const Normalised nf = normalise(f);
  return run_df2t(nf, x, zi);
}

std::vector<double> lfilter_zi(const FilterCoeffs& f) {
  return steady_state_zi(normalise(f));
}

std::vector<double> filtfilt(const FilterCoeffs& f,
                             std::span<const double> x) {
  DASSA_TRACE_SPAN("dsp", "dsp.filtfilt");
  const Normalised nf = normalise(f);
  const std::size_t pad = 3 * (nf.n - 1);
  DASSA_CHECK(x.size() > pad,
              "filtfilt input must be longer than 3*(filter order)");
  const std::size_t ns = nf.n - 1;
  const std::size_t ext_len = x.size() + 2 * pad;

  // The extended signal and the filter state live in the per-thread
  // workspace arena; both passes filter the buffer in place, so the
  // only per-call allocations left are the (order-sized) zi vector and
  // the returned output.
  FftWorkspace& ws = fft_workspace();
  std::vector<double>& ext = ws.rbuf(3, ext_len);
  std::vector<double>& state = ws.rbuf(4, ns);

  // Odd reflection about the end points removes edge transients.
  for (std::size_t i = 0; i < pad; ++i) {
    ext[i] = 2.0 * x[0] - x[pad - i];
  }
  std::copy(x.begin(), x.end(),
            ext.begin() + static_cast<std::ptrdiff_t>(pad));
  for (std::size_t i = 0; i < pad; ++i) {
    ext[pad + x.size() + i] = 2.0 * x[x.size() - 1] - x[x.size() - 2 - i];
  }

  const std::vector<double> zi = steady_state_zi(nf);

  // Forward pass (in place).
  for (std::size_t i = 0; i < ns; ++i) state[i] = zi[i] * ext.front();
  run_df2t_raw(nf, ext.data(), ext_len, 1, ext.data(), state.data());

  // Backward pass (in place, last sample first: the same arithmetic as
  // filtering the reversed signal, without reversing it twice).
  double* last = ext.data() + (ext_len - 1);
  for (std::size_t i = 0; i < ns; ++i) state[i] = zi[i] * ext.back();
  run_df2t_raw(nf, last, ext_len, -1, last, state.data());

  return {ext.begin() + static_cast<std::ptrdiff_t>(pad),
          ext.begin() + static_cast<std::ptrdiff_t>(pad + x.size())};
}

}  // namespace dassa::dsp
