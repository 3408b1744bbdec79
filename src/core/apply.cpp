#include "dassa/core/apply.hpp"

#include <cstring>

#include "dassa/common/counters.hpp"
#include "dassa/common/trace.hpp"

namespace dassa::core {

namespace {

/// Make the stencil for linearised owned-cell index `i`.
Stencil stencil_at(const LocalBlock& block, std::size_t i) {
  const std::size_t cols = block.block_shape.cols;
  const std::size_t local_row = block.owned_local.begin + i / cols;
  const std::size_t col = i % cols;
  return Stencil(block.data.data(), block.block_shape, block.global_row0,
                 local_row, col, block.global_shape);
}

std::size_t owned_cell_count(const LocalBlock& block) {
  return block.owned_rows() * block.block_shape.cols;
}

void validate(const LocalBlock& block) {
  DASSA_CHECK(block.data.size() == block.block_shape.size(),
              "local block data does not match its shape");
  DASSA_CHECK(block.owned_local.end <= block.block_shape.rows,
              "owned range exceeds local block");
}

/// A thread-count entry runs on at least one thread; no default team
/// size is picked for the caller.
void check_threads(int threads) {
  DASSA_CHECK(threads >= 1, "Apply needs at least one thread");
}

Array2D rows_from_results(std::vector<std::vector<double>>& results) {
  const std::size_t rows = results.size();
  const std::size_t out_cols = rows == 0 ? 0 : results.front().size();
  Array2D out(Shape2D{rows, out_cols});
  for (std::size_t r = 0; r < rows; ++r) {
    DASSA_CHECK(results[r].size() == out_cols,
                "row UDF returned inconsistent lengths");
    std::copy(results[r].begin(), results[r].end(),
              out.data.begin() + static_cast<std::ptrdiff_t>(r * out_cols));
  }
  return out;
}

Stencil row_stencil(const LocalBlock& block, std::size_t owned_row) {
  return Stencil(block.data.data(), block.block_shape, block.global_row0,
                 block.owned_local.begin + owned_row, 0, block.global_shape);
}

/// Run a row-form cell UDF on owned rows [begin, end) of `out`. A
/// block with no columns has no cells (and no column-0 stencil).
void cell_rows(const LocalBlock& block, const CellRowUdf& udf, Array2D& out,
               std::size_t begin, std::size_t end) {
  const std::size_t cols = block.block_shape.cols;
  if (cols == 0) return;
  for (std::size_t r = begin; r < end; ++r) {
    udf(row_stencil(block, r),
        std::span<double>(out.data.data() + r * cols, cols));
  }
}

// Telemetry progress hooks: one registry add per apply call (or per
// pool chunk), so the sampler can tell a busy pipeline from a stalled
// one without taxing the per-cell hot loop.
void charge_cells(std::size_t n) {
  static Counter& cells =
      global_counters().counter(counters::kTelemetryCellsProcessed);
  cells.add(n);
}

void charge_rows(std::size_t n) {
  static Counter& rows =
      global_counters().counter(counters::kTelemetryRowsProcessed);
  rows.add(n);
}

}  // namespace

Array2D apply_cells_serial(const LocalBlock& block, const ScalarUdf& udf) {
  validate(block);
  const std::size_t n = owned_cell_count(block);
  Array2D out(Shape2D{block.owned_rows(), block.block_shape.cols});
  for (std::size_t i = 0; i < n; ++i) {
    out.data[i] = udf(stencil_at(block, i));
  }
  charge_cells(n);
  return out;
}

Array2D apply_cells_mt(const LocalBlock& block, const ScalarUdf& udf,
                       ThreadPool& pool) {
  validate(block);
  const std::size_t n = owned_cell_count(block);
  Array2D out(Shape2D{block.owned_rows(), block.block_shape.cols});

  // Algorithm 1: split the linearised cells statically, run the UDF
  // into a per-thread result vector Rp, then insert each Rp into R at
  // its prefix offset. With a static schedule each thread's chunk is
  // contiguous, so the prefix offset is the chunk start.
  pool.parallel_for(n, [&](std::size_t /*thread*/, std::size_t begin,
                           std::size_t end) {
    DASSA_TRACE_SPAN("haee", "haee.apply_cells_chunk");
    std::vector<double> rp;  // result vector per thread
    rp.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      rp.push_back(udf(stencil_at(block, i)));
    }
    std::memcpy(out.data.data() + begin, rp.data(),
                rp.size() * sizeof(double));  // R[p[h-1] : p[h]] = Rp
    charge_cells(end - begin);
  });
  return out;
}

Array2D apply_cells_serial(const LocalBlock& block, const CellRowUdf& udf) {
  validate(block);
  Array2D out(Shape2D{block.owned_rows(), block.block_shape.cols});
  cell_rows(block, udf, out, 0, block.owned_rows());
  charge_cells(owned_cell_count(block));
  return out;
}

Array2D apply_cells_mt(const LocalBlock& block, const CellRowUdf& udf,
                       ThreadPool& pool) {
  validate(block);
  Array2D out(Shape2D{block.owned_rows(), block.block_shape.cols});
  pool.parallel_for(block.owned_rows(), [&](std::size_t /*thread*/,
                                            std::size_t begin,
                                            std::size_t end) {
    DASSA_TRACE_SPAN("haee", "haee.apply_cells_chunk");
    cell_rows(block, udf, out, begin, end);
    charge_cells((end - begin) * block.block_shape.cols);
  });
  return out;
}

Array2D apply_cells_mt_direct(const LocalBlock& block, const ScalarUdf& udf,
                              ThreadPool& pool) {
  validate(block);
  const std::size_t n = owned_cell_count(block);
  Array2D out(Shape2D{block.owned_rows(), block.block_shape.cols});
  pool.parallel_for(n, [&](std::size_t /*thread*/, std::size_t begin,
                           std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out.data[i] = udf(stencil_at(block, i));
    }
    charge_cells(end - begin);
  });
  return out;
}

Array2D apply_rows_serial(const LocalBlock& block, const RowUdf& udf) {
  validate(block);
  std::vector<std::vector<double>> results(block.owned_rows());
  for (std::size_t r = 0; r < results.size(); ++r) {
    results[r] = udf(row_stencil(block, r));
  }
  charge_rows(results.size());
  return rows_from_results(results);
}

Array2D apply_rows_mt(const LocalBlock& block, const RowUdf& udf,
                      ThreadPool& pool) {
  validate(block);
  std::vector<std::vector<double>> results(block.owned_rows());
  pool.parallel_for(results.size(), [&](std::size_t /*thread*/,
                                        std::size_t begin, std::size_t end) {
    DASSA_TRACE_SPAN("haee", "haee.apply_rows_chunk");
    for (std::size_t r = begin; r < end; ++r) {
      results[r] = udf(row_stencil(block, r));
    }
    charge_rows(end - begin);
  });
  return rows_from_results(results);
}

Array2D apply_cells(const LocalBlock& block, const ScalarUdf& udf,
                    int threads) {
  check_threads(threads);
  if (threads == 1) return apply_cells_serial(block, udf);
  ThreadPool pool(static_cast<std::size_t>(threads));
  return apply_cells_mt(block, udf, pool);
}

Array2D apply_cells(const LocalBlock& block, const CellRowUdf& udf,
                    int threads) {
  check_threads(threads);
  if (threads == 1) return apply_cells_serial(block, udf);
  ThreadPool pool(static_cast<std::size_t>(threads));
  return apply_cells_mt(block, udf, pool);
}

Array2D apply_rows(const LocalBlock& block, const RowUdf& udf, int threads) {
  check_threads(threads);
  if (threads == 1) return apply_rows_serial(block, udf);
  ThreadPool pool(static_cast<std::size_t>(threads));
  return apply_rows_mt(block, udf, pool);
}

}  // namespace dassa::core
