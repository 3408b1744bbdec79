#include "dassa/das/interferometry.hpp"

#include "dassa/common/counters.hpp"
#include "dassa/dsp/daslib.hpp"

namespace dassa::das {

namespace {

/// Nyquist-relative band edges, validated against the sampling rate.
std::pair<double, double> band_edges(const InterferometryParams& p) {
  const double nyquist = p.sampling_hz / 2.0;
  DASSA_CHECK(p.band_lo_hz > 0.0 && p.band_hi_hz < nyquist &&
                  p.band_lo_hz < p.band_hi_hz,
              "bandpass edges must satisfy 0 < lo < hi < Nyquist");
  return {p.band_lo_hz / nyquist, p.band_hi_hz / nyquist};
}

}  // namespace

InterferometryPrep interferometry_prep(const InterferometryParams& p) {
  const auto [lo, hi] = band_edges(p);
  return InterferometryPrep{
      daslib::Das_butter_bandpass(p.butter_order, lo, hi)};
}

std::vector<double> interferometry_preprocess(std::span<const double> x,
                                              const InterferometryParams& p) {
  return interferometry_preprocess(x, p, interferometry_prep(p));
}

std::vector<double> interferometry_preprocess(
    std::span<const double> x, const InterferometryParams& p,
    const InterferometryPrep& prep) {
  const std::vector<double> detrended = daslib::Das_detrend(x);
  const std::vector<double> filtered =
      daslib::Das_filtfilt(prep.bandpass, detrended);
  return daslib::Das_resample(filtered, p.resample_up, p.resample_down);
}

std::vector<dsp::cplx> interferometry_spectrum(std::span<const double> x,
                                               const InterferometryParams& p) {
  return daslib::Das_fft(interferometry_preprocess(x, p));
}

std::vector<dsp::cplx> interferometry_spectrum(
    std::span<const double> x, const InterferometryParams& p,
    const InterferometryPrep& prep) {
  return daslib::Das_fft(interferometry_preprocess(x, p, prep));
}

core::RowUdf make_interferometry_udf(const InterferometryParams& p,
                                     std::vector<dsp::cplx> master_spectrum) {
  // Design the bandpass once here: the UDF runs per channel, and
  // redesigning identical coefficients ~10^4 times dominated the row
  // loop's setup cost before the hoist.
  return [p, prep = interferometry_prep(p),
          master = std::move(master_spectrum)](
             const core::Stencil& s) -> std::vector<double> {
    const std::vector<dsp::cplx> w_fft =
        interferometry_spectrum(s.row_span(0), p, prep);
    DASSA_CHECK(w_fft.size() == master.size(),
                "channel and master spectra differ in length");
    if (p.full_correlation) {
      return dsp::xcorr_spectra(w_fft, master);
    }
    return {daslib::Das_abscorr(std::span<const dsp::cplx>(w_fft),
                                std::span<const dsp::cplx>(master))};
  };
}

core::RowUdfFactory make_interferometry_factory(
    const InterferometryParams& p) {
  return [p](const core::RankContext& ctx) -> core::RowUdf {
    // Locate the rank that owns the master channel and broadcast the
    // raw master row to everyone. Every rank then computes and holds
    // its *own copy* of the master spectrum -- one copy per rank, i.e.
    // one per node under HAEE and cores_per_node per node under
    // MPI-per-core ArrayUDF. The counter records the duplication.
    const Shape2D global = ctx.block.global_shape;
    DASSA_CHECK(p.master_channel < global.rows,
                "master channel outside the array");
    const int size = ctx.comm.size();
    int owner = 0;
    for (int r = 0; r < size; ++r) {
      const Range range = even_chunk(global.rows,
                                     static_cast<std::size_t>(size),
                                     static_cast<std::size_t>(r));
      if (p.master_channel >= range.begin && p.master_channel < range.end) {
        owner = r;
        break;
      }
    }

    std::vector<double> master_row;
    if (ctx.comm.rank() == owner) {
      const Range mine = even_chunk(global.rows,
                                    static_cast<std::size_t>(size),
                                    static_cast<std::size_t>(owner));
      const std::size_t local_row =
          ctx.block.owned_local.begin + (p.master_channel - mine.begin);
      const double* row = ctx.block.data.data() +
                          local_row * ctx.block.block_shape.cols;
      master_row.assign(row, row + ctx.block.block_shape.cols);
    }
    ctx.comm.bcast(master_row, owner);

    global_counters().add(counters::kMemMasterChannelCopies);
    return make_interferometry_udf(
        p, interferometry_spectrum(master_row, p));
  };
}

core::Array2D interferometry_single_node(const core::Array2D& data,
                                         const InterferometryParams& p,
                                         int threads) {
  DASSA_CHECK(threads >= 1, "interferometry needs at least one thread");
  DASSA_CHECK(p.master_channel < data.shape.rows,
              "master channel outside the array");
  global_counters().add(counters::kMemMasterChannelCopies);
  const core::RowUdf udf = make_interferometry_udf(
      p, interferometry_spectrum(data.row(p.master_channel), p));
  return core::apply_rows(core::LocalBlock::whole(data), udf, threads);
}

core::EngineReport interferometry_distributed(const core::EngineConfig& config,
                                              const io::Vca& vca,
                                              const InterferometryParams& p) {
  // Memory model: each rank duplicates the master row + its spectrum.
  const std::size_t cols = vca.shape().cols;
  const std::size_t resampled =
      (cols * p.resample_up + p.resample_down - 1) / p.resample_down;
  const std::size_t extra_bytes =
      cols * sizeof(double) + resampled * sizeof(dsp::cplx);
  return core::run_rows(config, vca, make_interferometry_factory(p),
                        extra_bytes);
}

}  // namespace dassa::das
