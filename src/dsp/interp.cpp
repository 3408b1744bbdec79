#include "dassa/dsp/interp.hpp"

#include <algorithm>

#include "dassa/common/error.hpp"

namespace dassa::dsp {

std::vector<double> interp1(std::span<const double> x0,
                            std::span<const double> y0,
                            std::span<const double> x) {
  DASSA_CHECK(x0.size() == y0.size(), "interp1: x0 and y0 lengths differ");
  DASSA_CHECK(x0.size() >= 2, "interp1 needs at least two source samples");
  for (std::size_t i = 1; i < x0.size(); ++i) {
    DASSA_CHECK(x0[i] > x0[i - 1], "interp1: x0 must be strictly increasing");
  }
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double q = x[i];
    if (q <= x0.front()) {
      y[i] = y0.front();
      continue;
    }
    if (q >= x0.back()) {
      y[i] = y0.back();
      continue;
    }
    // First source point strictly greater than q.
    const auto it = std::upper_bound(x0.begin(), x0.end(), q);
    const std::size_t hi = static_cast<std::size_t>(it - x0.begin());
    const std::size_t lo = hi - 1;
    const double t = (q - x0[lo]) / (x0[hi] - x0[lo]);
    y[i] = y0[lo] + t * (y0[hi] - y0[lo]);
  }
  return y;
}

}  // namespace dassa::dsp
