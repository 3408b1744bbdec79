#include "dassa/das/baseline.hpp"

#include "dassa/dsp/daslib.hpp"

namespace dassa::das {

namespace {

/// Model MATLAB's pass-by-value call boundary: the callee receives a
/// copy of its argument. Returns the copy and charges the report.
std::vector<double> call_copy(std::span<const double> x,
                              BaselineReport& report) {
  report.bytes_copied += x.size_bytes();
  return {x.begin(), x.end()};
}

}  // namespace

BaselineReport baseline_interferometry(const core::Array2D& data,
                                       const InterferometryParams& p) {
  BaselineReport report;
  const std::size_t rows = data.shape.rows;
  const double nyquist = p.sampling_hz / 2.0;
  const dsp::FilterCoeffs coeffs = daslib::Das_butter_bandpass(
      p.butter_order, p.band_lo_hz / nyquist, p.band_hi_hz / nyquist);

  // Stage 1: detrend the whole array into a fresh temporary.
  core::Array2D detrended(data.shape);
  {
    StageScope scope(report.stages, "compute.detrend");
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> arg = call_copy(data.row(r), report);
      const std::vector<double> out = daslib::Das_detrend(arg);
      std::copy(out.begin(), out.end(), detrended.row(r).begin());
    }
    ++report.full_array_temporaries;
    report.bytes_copied += detrended.data.size() * sizeof(double);
  }

  // Stage 2: zero-phase bandpass, next temporary.
  core::Array2D filtered(data.shape);
  {
    StageScope scope(report.stages, "compute.filtfilt");
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> arg = call_copy(detrended.row(r), report);
      const std::vector<double> out = daslib::Das_filtfilt(coeffs, arg);
      std::copy(out.begin(), out.end(), filtered.row(r).begin());
    }
    ++report.full_array_temporaries;
    report.bytes_copied += filtered.data.size() * sizeof(double);
  }

  // Stage 3: resample, next temporary (new width).
  const std::size_t new_cols =
      (data.shape.cols * p.resample_up + p.resample_down - 1) /
      p.resample_down;
  core::Array2D resampled(Shape2D{rows, new_cols});
  {
    StageScope scope(report.stages, "compute.resample");
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> arg = call_copy(filtered.row(r), report);
      const std::vector<double> out =
          daslib::Das_resample(arg, p.resample_up, p.resample_down);
      std::copy(out.begin(), out.end(), resampled.row(r).begin());
    }
    ++report.full_array_temporaries;
    report.bytes_copied += resampled.data.size() * sizeof(double);
  }

  // Stage 4: FFT of every channel, held as a full complex temporary.
  std::vector<std::vector<dsp::cplx>> spectra(rows);
  {
    StageScope scope(report.stages, "compute.fft");
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> arg = call_copy(resampled.row(r), report);
      spectra[r] = daslib::Das_fft(arg);
      report.bytes_copied += spectra[r].size() * sizeof(dsp::cplx);
    }
    ++report.full_array_temporaries;
  }

  // Stage 5: correlate every channel spectrum against the master.
  {
    StageScope scope(report.stages, "compute.correlate");
    const std::vector<dsp::cplx>& master = spectra[p.master_channel];
    if (p.full_correlation) {
      report.output = core::Array2D(Shape2D{rows, new_cols});
      for (std::size_t r = 0; r < rows; ++r) {
        const std::vector<double> ncf = dsp::xcorr_spectra(spectra[r], master);
        std::copy(ncf.begin(), ncf.end(), report.output.row(r).begin());
      }
    } else {
      report.output = core::Array2D(Shape2D{rows, 1});
      for (std::size_t r = 0; r < rows; ++r) {
        report.output.at(r, 0) = daslib::Das_abscorr(
            std::span<const dsp::cplx>(spectra[r]),
            std::span<const dsp::cplx>(master));
      }
    }
  }
  return report;
}

BaselineReport dassa_interferometry(const core::Array2D& data,
                                    const InterferometryParams& p,
                                    int threads) {
  DASSA_CHECK(threads >= 1, "DASSA interferometry needs at least one thread");
  BaselineReport report;
  StageScope scope(report.stages, "compute");
  report.output = interferometry_single_node(data, p, threads);
  return report;
}

}  // namespace dassa::das
