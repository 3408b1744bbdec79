// Readable reference forms of the DasLib row kernels whose fast paths
// promise bitwise-identical output: the general-length DF2T recursion
// behind lfilter/filtfilt (pad, forward pass, reverse, backward pass,
// reverse) and the bounds-checked polyphase loop behind resample. The
// fast paths keep each output's floating-point operation order, so
// tests compare against these with EXPECT_EQ on doubles.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "dassa/dsp/filter.hpp"
#include "dassa/dsp/resample.hpp"

namespace dassa::dsp::oracle {

/// Coefficients normalised to a[0] == 1 and padded to one length n.
struct Normalised {
  std::vector<double> b;
  std::vector<double> a;
  std::size_t n;
};

inline Normalised normalise(const FilterCoeffs& f) {
  Normalised out;
  out.n = std::max(f.a.size(), f.b.size());
  out.b.assign(out.n, 0.0);
  out.a.assign(out.n, 0.0);
  for (std::size_t i = 0; i < f.b.size(); ++i) out.b[i] = f.b[i] / f.a[0];
  for (std::size_t i = 0; i < f.a.size(); ++i) out.a[i] = f.a[i] / f.a[0];
  return out;
}

/// Direct-form II transposed recursion, any state length, in place
/// allowed (x[i] is read before y[i] is written).
inline void df2t(const Normalised& f, const double* x, std::size_t n,
                 double* y, double* z) {
  const std::size_t ns = f.n - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double yi = f.b[0] * xi + (ns > 0 ? z[0] : 0.0);
    for (std::size_t s = 0; s + 1 < ns; ++s) {
      z[s] = f.b[s + 1] * xi + z[s + 1] - f.a[s + 1] * yi;
    }
    if (ns > 0) {
      z[ns - 1] = f.b[ns] * xi - f.a[ns] * yi;
    }
    y[i] = yi;
  }
}

inline std::vector<double> lfilter(const FilterCoeffs& f,
                                   std::span<const double> x) {
  const Normalised nf = normalise(f);
  std::vector<double> z(nf.n - 1, 0.0);
  std::vector<double> y(x.size());
  df2t(nf, x.data(), x.size(), y.data(), z.data());
  return y;
}

inline std::vector<double> steady_state_zi(const Normalised& nf) {
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

/// Odd-reflection pad of 3 * (state length), forward pass, then the
/// backward pass on the reversed signal.
inline std::vector<double> filtfilt(const FilterCoeffs& f,
                                    std::span<const double> x) {
  const Normalised nf = normalise(f);
  const std::size_t ns = nf.n - 1;
  const std::size_t pad = 3 * ns;
  std::vector<double> ext(x.size() + 2 * pad);
  for (std::size_t i = 0; i < pad; ++i) ext[i] = 2.0 * x[0] - x[pad - i];
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(pad));
  for (std::size_t i = 0; i < pad; ++i) {
    ext[pad + x.size() + i] = 2.0 * x[x.size() - 1] - x[x.size() - 2 - i];
  }
  const std::vector<double> zi = steady_state_zi(nf);
  std::vector<double> state(ns);
  for (std::size_t i = 0; i < ns; ++i) state[i] = zi[i] * ext.front();
  df2t(nf, ext.data(), ext.size(), ext.data(), state.data());
  std::reverse(ext.begin(), ext.end());
  for (std::size_t i = 0; i < ns; ++i) state[i] = zi[i] * ext.front();
  df2t(nf, ext.data(), ext.size(), ext.data(), state.data());
  std::reverse(ext.begin(), ext.end());
  return {ext.begin() + static_cast<std::ptrdiff_t>(pad),
          ext.begin() + static_cast<std::ptrdiff_t>(pad + x.size())};
}

/// upfirdn with the Kaiser-sinc design: output m sums, in ascending j,
/// h[pos - j] * x[j / up] over the taps at non-zero stuffed samples,
/// pos = m * down + half, stopping at the end of x.
inline std::vector<double> resample(std::span<const double> x,
                                    std::size_t up, std::size_t down) {
  if (x.empty()) return {};
  if (up == down) return {x.begin(), x.end()};
  const std::vector<double> h = resample_filter(up, down);
  const std::size_t half = (h.size() - 1) / 2;
  const std::size_t n = x.size();
  const std::size_t out_len = (n * up + down - 1) / down;
  std::vector<double> y(out_len, 0.0);
  for (std::size_t m = 0; m < out_len; ++m) {
    const std::size_t pos = m * down + half;
    const std::size_t k_min = (pos >= h.size() - 1) ? pos - (h.size() - 1) : 0;
    std::size_t j = ((k_min + up - 1) / up) * up;
    double acc = 0.0;
    for (; j <= pos; j += up) {
      const std::size_t src = j / up;
      if (src >= n) break;
      acc += h[pos - j] * x[src];
    }
    y[m] = acc;
  }
  return y;
}

}  // namespace dassa::dsp::oracle
