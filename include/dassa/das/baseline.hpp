// Baseline: the MATLAB-style single-node pipeline (paper Fig. 9's
// comparison target).
//
// The paper compares DASSA against the geophysicists' MATLAB pipeline
// and attributes DASSA's advantage (up to 16x in compute) to one
// structural difference: MATLAB parallelises only *inside* individual
// vectorised kernels, while DASSA parallelises the whole per-channel
// pipeline. With no MATLAB licence on this substrate (or the paper's),
// the baseline reproduces MATLAB's execution *structure* in C++:
//
//  * stage-at-a-time execution: every stage (detrend, filter, resample,
//    fft, correlate) runs over the full array before the next starts,
//    materialising a full-array temporary between stages -- MATLAB's
//    natural vectorised style;
//  * pass-by-value argument copies at every function call boundary,
//    modelling MATLAB's copy semantics;
//  * a serial interpreted loop over channels inside each stage (MATLAB
//    for-loops do not multithread), with kernel-internal threading left
//    to the BLAS-like kernels, which at per-channel sizes contributes
//    nothing.
//
// DASSA's engine instead fuses the chain per channel and parallelises
// across channels (core::apply_rows on a thread pool), touching each
// channel once.
#pragma once

#include "dassa/common/timer.hpp"
#include "dassa/core/array.hpp"
#include "dassa/das/interferometry.hpp"

namespace dassa::das {

/// Result of a baseline run: output plus per-stage timing and the
/// number of full-array temporaries materialised.
struct BaselineReport {
  core::Array2D output;
  StageTimes stages;
  std::size_t full_array_temporaries = 0;
  std::uint64_t bytes_copied = 0;  ///< argument + temporary copies
};

/// Run the interferometry pipeline MATLAB-style (see file comment).
[[nodiscard]] BaselineReport baseline_interferometry(
    const core::Array2D& data, const InterferometryParams& params);

/// Run the same pipeline DASSA-style (fused per channel, parallel
/// across `threads` >= 1 Apply threads) with identical numerics, for
/// Fig. 9's comparison.
[[nodiscard]] BaselineReport dassa_interferometry(
    const core::Array2D& data, const InterferometryParams& params,
    int threads);

}  // namespace dassa::das
