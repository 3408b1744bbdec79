// DasLib umbrella header with the paper's MATLAB-style names.
//
// Paper Table II lists DasLib's public operations using MATLAB signal
// toolbox naming (Das_abscorr, Das_detrend, Das_butter, Das_filtfilt,
// Das_resample, Das_interp1, Das_fft, Das_ifft). This header provides
// exactly those entry points (plus the band-pass form of Das_butter) as
// thin aliases over the snake_case kernels, so UDF code can be written
// to read like the paper's algorithms.
// All functions are thread-safe and sequential, by DasLib's contract:
// parallelism comes from the HAEE engine, never from inside a kernel.
#pragma once

#include "dassa/dsp/butterworth.hpp"
#include "dassa/dsp/correlate.hpp"
#include "dassa/dsp/detrend.hpp"
#include "dassa/dsp/fft.hpp"
#include "dassa/dsp/filter.hpp"
#include "dassa/dsp/interp.hpp"
#include "dassa/dsp/resample.hpp"

namespace dassa::daslib {

using dsp::cplx;
using dsp::FilterCoeffs;

/// |cos(theta(c1, c2))| — absolute correlation of two equal-length
/// windows (paper Table II, Das_abscorr).
inline double Das_abscorr(std::span<const double> c1,
                          std::span<const double> c2) {
  return dsp::abscorr(c1, c2);
}
inline double Das_abscorr(std::span<const cplx> c1, std::span<const cplx> c2) {
  return dsp::abscorr(c1, c2);
}

/// Removes the best straight-line fit (paper Table II, Das_detrend).
inline std::vector<double> Das_detrend(std::span<const double> x) {
  return dsp::detrend_linear(x);
}

/// Butterworth design with Nyquist-relative cutoff fc (Das_butter).
inline FilterCoeffs Das_butter(int n, double fc) {
  return dsp::butter_lowpass(n, fc);
}
inline FilterCoeffs Das_butter_bandpass(int n, double f_lo, double f_hi) {
  return dsp::butter_bandpass(n, f_lo, f_hi);
}

/// Zero-phase application of coefficients to X (Das_filtfilt).
inline std::vector<double> Das_filtfilt(const FilterCoeffs& c,
                                        std::span<const double> x) {
  return dsp::filtfilt(c, x);
}

/// Resample X by 1/R (Das_resample(X, 1, R) in the paper).
inline std::vector<double> Das_resample(std::span<const double> x,
                                        std::size_t p, std::size_t q) {
  return dsp::resample(x, p, q);
}

/// Linear interpolation of (X0, Y0) at X (Das_interp1).
inline std::vector<double> Das_interp1(std::span<const double> x0,
                                       std::span<const double> y0,
                                       std::span<const double> x) {
  return dsp::interp1(x0, y0, x);
}

/// Forward FFT of a real signal (Das_fft).
inline std::vector<cplx> Das_fft(std::span<const double> x) {
  return dsp::rfft(x);
}

/// Inverse FFT returning the real part (Das_ifft).
inline std::vector<double> Das_ifft(std::span<const cplx> x) {
  return dsp::irfft_real(x);
}

}  // namespace dassa::daslib
