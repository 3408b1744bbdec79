// The readable per-cell form of paper Algorithm 2, kept as the test
// oracle for the row kernel in src/das/local_similarity.cpp: every cell
// extracts its windows and calls Das_abscorr 2(2L+1) times, exactly as
// the algorithm is written.
#pragma once

#include <algorithm>

#include "dassa/core/apply.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/dsp/daslib.hpp"

namespace dassa::das {

/// The Algorithm 2 cell UDF. Cells whose full neighbourhood (time span
/// M+L on both sides, channels +-K) falls outside the array yield 0.
inline core::ScalarUdf similarity_oracle_udf(const LocalSimilarityParams& p) {
  const auto M = static_cast<std::ptrdiff_t>(p.window_half);
  const auto L = static_cast<std::ptrdiff_t>(p.lag_half);
  const auto K = static_cast<std::ptrdiff_t>(p.channel_offset);

  return [M, L, K](const core::Stencil& s) -> double {
    if (!s.in_bounds(-(M + L), -K) || !s.in_bounds(M + L, -K) ||
        !s.in_bounds(-(M + L), +K) || !s.in_bounds(M + L, +K)) {
      return 0.0;
    }
    const std::vector<double> w = s.window(-M, M, 0);
    double c_plus = 0.0;
    double c_minus = 0.0;
    for (std::ptrdiff_t l = -L; l <= L; ++l) {
      const std::vector<double> w1 = s.window(l - M, l + M, +K);
      const std::vector<double> w2 = s.window(l - M, l + M, -K);
      c_plus = std::max(c_plus, daslib::Das_abscorr(w, w1));
      c_minus = std::max(c_minus, daslib::Das_abscorr(w, w2));
    }
    return 0.5 * (c_plus + c_minus);
  };
}

/// The oracle over a whole in-memory array.
inline core::Array2D similarity_oracle(const core::Array2D& data,
                                       const LocalSimilarityParams& p) {
  return core::apply_cells_serial(core::LocalBlock::whole(data),
                                  similarity_oracle_udf(p));
}

}  // namespace dassa::das
