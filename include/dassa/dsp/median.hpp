// DasLib: median of a buffer -- the robust statistic behind channel QC
// and the event detector's noise floor.
#pragma once

#include <vector>

namespace dassa::dsp {

/// Median of a buffer (by copy; n log n).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace dassa::dsp
