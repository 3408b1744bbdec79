#include "dassa/dsp/median.hpp"

#include <algorithm>

#include "dassa/common/error.hpp"

namespace dassa::dsp {

double median(std::vector<double> values) {
  DASSA_CHECK(!values.empty(), "median of empty range");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const auto lo_it = std::max_element(
      values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (hi + *lo_it);
}

}  // namespace dassa::dsp
