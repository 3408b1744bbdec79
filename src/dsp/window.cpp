#include "dassa/dsp/window.hpp"

#include <algorithm>
#include <cmath>

#include "dassa/common/error.hpp"

namespace dassa::dsp {

double bessel_i0(double x) {
  DASSA_CHECK(std::isfinite(x), "bessel_i0 argument must be finite");
  // Power-series: I0(x) = sum ((x/2)^k / k!)^2; converges quickly for
  // the beta values used in FIR design (< ~20).
  const double half = x / 2.0;
  double term = 1.0;
  double sum = 1.0;
  for (int k = 1; k < 64; ++k) {
    term *= half / static_cast<double>(k);
    const double contrib = term * term;
    sum += contrib;
    if (contrib < 1e-18 * sum) break;
  }
  return sum;
}

std::vector<double> kaiser_window(std::size_t n, double beta) {
  DASSA_CHECK(std::isfinite(beta) && beta >= 0.0,
              "kaiser beta must be finite and non-negative");
  std::vector<double> w(n, 1.0);
  if (n <= 1) return w;
  const double denom = bessel_i0(beta);
  const double mid = static_cast<double>(n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = (static_cast<double>(i) - mid) / mid;
    w[i] = bessel_i0(beta * std::sqrt(std::max(0.0, 1.0 - r * r))) / denom;
  }
  return w;
}

}  // namespace dassa::dsp
