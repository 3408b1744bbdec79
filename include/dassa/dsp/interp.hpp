// DasLib: Das_interp1 (paper Table II) -- 1D linear interpolation
// following MATLAB interp1(x0, y0, x) semantics.
#pragma once

#include <span>
#include <vector>

namespace dassa::dsp {

/// Linearly interpolate samples (x0, y0) at query points x.
/// x0 must be strictly increasing; queries outside [x0.front(),
/// x0.back()] are clamped to the edge values (MATLAB 'extrap' with
/// nearest edge, the convention the DAS pipeline uses for resampled
/// boundaries).
[[nodiscard]] std::vector<double> interp1(std::span<const double> x0,
                                          std::span<const double> y0,
                                          std::span<const double> x);

}  // namespace dassa::dsp
