// DasLib: the Kaiser window behind the resampler's anti-alias FIR
// design.
#pragma once

#include <cstddef>
#include <vector>

namespace dassa::dsp {

/// Kaiser window with shape parameter beta (used by the resampler's
/// anti-alias FIR design).
[[nodiscard]] std::vector<double> kaiser_window(std::size_t n, double beta);

/// Zeroth-order modified Bessel function of the first kind (series
/// expansion), needed by the Kaiser window.
[[nodiscard]] double bessel_i0(double x);

}  // namespace dassa::dsp
