// Case study 2: traffic-noise interferometry (paper Algorithm 3, after
// Ajo-Franklin et al. 2017 / Dou et al. 2017).
//
// Per channel: detrend -> zero-phase Butterworth bandpass -> resample
// -> FFT -> correlate against the FFT of a designated master channel.
// The master-channel spectrum is the shared state whose duplication
// distinguishes HAEE from MPI-per-core ArrayUDF (paper Section V-B and
// Fig. 8): the factory computes it once per rank and charges the
// mem.master_channel_copies counter, so benches can measure the k-fold
// replication directly.
#pragma once

#include <complex>

#include "dassa/core/apply.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/dsp/fft.hpp"
#include "dassa/dsp/filter.hpp"

namespace dassa::das {

struct InterferometryParams {
  double sampling_hz = 500.0;
  int butter_order = 3;
  double band_lo_hz = 1.0;
  double band_hi_hz = 45.0;
  std::size_t resample_up = 1;
  std::size_t resample_down = 2;
  std::size_t master_channel = 0;

  /// Whether the UDF returns the full time-domain noise-correlation
  /// function (length = resampled window) instead of the paper's
  /// scalar Das_abscorr value.
  bool full_correlation = false;
};

/// Shared per-run state of the pre-processing chain: the designed
/// bandpass coefficients. Designing a Butterworth filter involves
/// root-finding and polynomial expansion, so doing it once per rank
/// instead of once per channel (~10^4 redundant designs) matters; the
/// UDF builders below hoist it out of the row loop.
struct InterferometryPrep {
  dsp::FilterCoeffs bandpass;
};

/// Design the shared pre-processing state for `p` (validates the band
/// edges against Nyquist).
[[nodiscard]] InterferometryPrep interferometry_prep(
    const InterferometryParams& p);

/// The sequential per-channel pre-processing chain (thread-safe):
/// detrend -> filtfilt(bandpass) -> resample. Exposed for tests and
/// the baseline pipeline. The two-argument form designs the filter
/// itself; pass a precomputed `prep` when calling per channel.
[[nodiscard]] std::vector<double> interferometry_preprocess(
    std::span<const double> x, const InterferometryParams& p);
[[nodiscard]] std::vector<double> interferometry_preprocess(
    std::span<const double> x, const InterferometryParams& p,
    const InterferometryPrep& prep);

/// Full per-channel chain ending in the FFT (what the UDF correlates).
[[nodiscard]] std::vector<dsp::cplx> interferometry_spectrum(
    std::span<const double> x, const InterferometryParams& p);
[[nodiscard]] std::vector<dsp::cplx> interferometry_spectrum(
    std::span<const double> x, const InterferometryParams& p,
    const InterferometryPrep& prep);

/// Build the Algorithm 3 row-UDF around a precomputed master spectrum.
[[nodiscard]] core::RowUdf make_interferometry_udf(
    const InterferometryParams& p, std::vector<dsp::cplx> master_spectrum);

/// Factory for distributed runs: extracts the master channel from the
/// rank's block (every rank holds it -- the master channel is
/// broadcast with the read or found locally), computes its spectrum
/// once per rank, and counts one master-channel copy per rank.
[[nodiscard]] core::RowUdfFactory make_interferometry_factory(
    const InterferometryParams& p);

/// Single-node execution on `threads` Apply threads (>= 1, else
/// InvalidArgument; the output is the same for every count).
[[nodiscard]] core::Array2D interferometry_single_node(
    const core::Array2D& data, const InterferometryParams& p, int threads);

/// Distributed execution over a VCA through the HAEE engine.
[[nodiscard]] core::EngineReport interferometry_distributed(
    const core::EngineConfig& config, const io::Vca& vca,
    const InterferometryParams& p);

}  // namespace dassa::das
