// Case study 1: earthquake detection via local similarity
// (paper Algorithm 2, after Li et al. 2018).
//
// For every cell (channel, time) the UDF extracts the window
// W = S(-M:M, 0), slides (2L+1) windows over each of the two
// neighbouring channels at offsets +K and -K, takes the maximum
// absolute correlation against each side, and returns their mean.
// Coherent arrivals (earthquakes, vehicles) correlate across
// neighbouring channels; incoherent noise does not -- so the output map
// lights up exactly where paper Fig. 10 shows events.
//
// The kernel builds a channel's output row in O(L) work per cell: for
// every lag it keeps running window sums of x*y, x*x and y*y and slides
// them one column at a time. The sums are recomputed directly at every
// global column that is a multiple of kSimilarityAnchor (and at the
// first computable column), so a cell's value depends only on its
// global coordinates and the data -- not on where a rank's block or an
// ingest window starts. A running sum is also recomputed when the
// magnitude slid through it dwarfs its value (after a burst leaves the
// window), so the error against the direct per-cell evaluation stays a
// small multiple of eps (about 1e-14 in the oracle tests) instead of
// growing as eps * contrast^2. The per-cell form lives on as the test
// oracle in tests/das/similarity_oracle.hpp.
#pragma once

#include "dassa/core/apply.hpp"
#include "dassa/core/haee.hpp"

namespace dassa::das {

/// B: the running sums are re-anchored (recomputed directly) at global
/// columns that are multiples of B.
inline constexpr std::size_t kSimilarityAnchor = 32;

struct LocalSimilarityParams {
  std::size_t window_half = 25;    ///< M: window is 2M+1 samples
  std::size_t lag_half = 10;       ///< L: 2L+1 window positions per side
  std::size_t channel_offset = 1;  ///< K: neighbour distance in channels

  /// Ghost-zone width a distributed run needs for this UDF.
  [[nodiscard]] std::size_t halo() const { return channel_offset; }
};

/// Single-node execution over an in-memory array on `threads` Apply
/// threads (>= 1, else InvalidArgument; the output is the same for
/// every count). Cells whose full
/// neighbourhood (time span M+L on both sides, channels +-K) falls
/// outside the array yield 0, as does a cell whose own window, or
/// every neighbour window, holds only exact zeros.
[[nodiscard]] core::Array2D local_similarity(const core::Array2D& data,
                                             const LocalSimilarityParams& p,
                                             int threads);

/// Distributed execution over a VCA through the HAEE engine. The
/// engine's halo is overridden with the UDF's requirement. `col0` is
/// the global column of the VCA's column 0 (non-zero when the VCA is a
/// window of a longer stream), so anchors fall on the same global
/// columns as in a run over the whole stream.
[[nodiscard]] core::EngineReport local_similarity_distributed(
    core::EngineConfig config, const io::Vca& vca,
    const LocalSimilarityParams& p, std::size_t col0 = 0);

}  // namespace dassa::das
