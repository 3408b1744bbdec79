// ArrayUDF core: the Apply operator, B = Apply(A, f).
//
// Two execution backends of the same operator:
//  * apply_cells_serial  -- reference sequential execution (the oracle);
//  * apply_cells_mt      -- ApplyMT, paper Algorithm 1, on DASSA's
//                           explicit thread pool (per-thread result
//                           vectors + prefix merge).
// apply_cells / apply_rows take a thread count and pick between them:
// the serial oracle at one thread, ApplyMT on a pool of that many
// threads otherwise. HAEE's ranks and the single-node pipelines both
// enter there.
// Each cell backend also takes a CellRowUdf, the row form of a cell
// UDF: it is invoked once per owned channel and fills that channel's
// cells in one pass, so a kernel can carry work from one cell to the
// next (local similarity's sliding sums). The output and the
// telemetry.cells_processed charge are the same as for a ScalarUdf.
// Row-granularity variants run a UDF once per channel instead of once
// per cell (Algorithm 3 operates per channel).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dassa/common/shape.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/core/array.hpp"
#include "dassa/core/stencil.hpp"

namespace dassa::core {

/// UDF evaluated on each cell; must be thread-safe (it is invoked
/// concurrently from ApplyMT threads).
using ScalarUdf = std::function<double(const Stencil&)>;

/// Row form of a cell UDF: given a stencil on column 0 of one owned
/// channel, writes that channel's block_shape.cols output cells into
/// `out`. Must be thread-safe (rows run concurrently).
using CellRowUdf =
    std::function<void(const Stencil& row, std::span<double> out)>;

/// UDF evaluated once per channel; returns that channel's output time
/// series. All rows must return the same length.
using RowUdf = std::function<std::vector<double>(const Stencil&)>;

/// One rank's local view of the distributed array: the owned channel
/// rows plus ghost rows (halo channels) above and below.
struct LocalBlock {
  std::vector<double> data;  ///< (halo_lo + owned + halo_hi) x cols
  Shape2D block_shape;       ///< shape of `data`
  std::size_t global_row0 = 0;  ///< global channel index of local row 0
  Range owned_local;         ///< local row range holding owned channels
  Shape2D global_shape;      ///< shape of the full distributed array

  /// Build a block with no halo from a full in-memory array (single
  /// rank / single node case).
  static LocalBlock whole(const Array2D& a) {
    return LocalBlock{a.data, a.shape, 0, Range{0, a.shape.rows}, a.shape};
  }

  [[nodiscard]] std::size_t owned_rows() const { return owned_local.size(); }
};

/// Sequential Apply: one output value per owned cell.
[[nodiscard]] Array2D apply_cells_serial(const LocalBlock& block,
                                         const ScalarUdf& udf);

/// ApplyMT (Algorithm 1) on an explicit thread pool: the linearised
/// owned cells are split statically across pool threads; each thread
/// appends into its private result vector; results are merged into the
/// output at prefix offsets.
[[nodiscard]] Array2D apply_cells_mt(const LocalBlock& block,
                                     const ScalarUdf& udf, ThreadPool& pool);

/// Row-form cell Apply, sequential.
[[nodiscard]] Array2D apply_cells_serial(const LocalBlock& block,
                                         const CellRowUdf& udf);

/// Row-form cell Apply on an explicit thread pool: the owned rows are
/// split statically across pool threads; each row is written in place.
[[nodiscard]] Array2D apply_cells_mt(const LocalBlock& block,
                                     const CellRowUdf& udf, ThreadPool& pool);

/// Ablation variant of apply_cells_mt: threads write straight into the
/// pre-sized output instead of staging per-thread vectors (benched in
/// bench_fig8 as a design-choice ablation).
[[nodiscard]] Array2D apply_cells_mt_direct(const LocalBlock& block,
                                            const ScalarUdf& udf,
                                            ThreadPool& pool);

/// Sequential per-channel Apply. Output: owned_rows x L where L is the
/// UDF's output length.
[[nodiscard]] Array2D apply_rows_serial(const LocalBlock& block,
                                        const RowUdf& udf);

/// ApplyMT per channel on an explicit thread pool.
[[nodiscard]] Array2D apply_rows_mt(const LocalBlock& block, const RowUdf& udf,
                                    ThreadPool& pool);

/// Apply with `threads` threads (>= 1, else InvalidArgument): the
/// serial form at 1, the pool form on a local ThreadPool otherwise.
/// Rows and cells are independent, so the output is bitwise the same
/// for every thread count.
[[nodiscard]] Array2D apply_cells(const LocalBlock& block,
                                  const ScalarUdf& udf, int threads);
[[nodiscard]] Array2D apply_cells(const LocalBlock& block,
                                  const CellRowUdf& udf, int threads);
[[nodiscard]] Array2D apply_rows(const LocalBlock& block, const RowUdf& udf,
                                 int threads);

}  // namespace dassa::core
