// Apply engine tests: all backends (serial, pool-MT Algorithm 1,
// direct-MT ablation) and the thread-count entries must agree with each
// other on cell and row UDFs, including blocks with ghost rows.
#include "dassa/core/apply.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dassa/common/counters.hpp"
#include "dassa/common/metrics.hpp"

namespace dassa::core {
namespace {

Array2D random_array(Shape2D shape, std::uint64_t seed = 3) {
  Array2D a(shape);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  for (auto& v : a.data) v = dist(rng);
  return a;
}

/// Three-point moving average in time with edge clamping -- the paper's
/// introductory Stencil example, made edge-safe.
double moving_avg_udf(const Stencil& s) {
  const double left = s.in_bounds(-1, 0) ? s(-1, 0) : s(0, 0);
  const double right = s.in_bounds(1, 0) ? s(1, 0) : s(0, 0);
  return (left + s(0, 0) + right) / 3.0;
}

TEST(ApplySerialTest, MovingAverageMatchesNaive) {
  const Array2D a = random_array({4, 16});
  const Array2D out =
      apply_cells_serial(LocalBlock::whole(a), moving_avg_udf);
  ASSERT_EQ(out.shape, a.shape);
  for (std::size_t r = 0; r < a.shape.rows; ++r) {
    for (std::size_t c = 0; c < a.shape.cols; ++c) {
      const double left = c > 0 ? a.at(r, c - 1) : a.at(r, c);
      const double right = c + 1 < a.shape.cols ? a.at(r, c + 1) : a.at(r, c);
      EXPECT_NEAR(out.at(r, c), (left + a.at(r, c) + right) / 3.0, 1e-12);
    }
  }
}

class ApplyBackendTest : public ::testing::TestWithParam<int> {};

TEST_P(ApplyBackendTest, AllBackendsMatchSerial) {
  const int threads = GetParam();
  const Array2D a = random_array({7, 33});
  const LocalBlock block = LocalBlock::whole(a);
  const Array2D ref = apply_cells_serial(block, moving_avg_udf);

  ThreadPool pool(static_cast<std::size_t>(threads));
  EXPECT_EQ(apply_cells_mt(block, moving_avg_udf, pool), ref);
  EXPECT_EQ(apply_cells_mt_direct(block, moving_avg_udf, pool), ref);
  EXPECT_EQ(apply_cells(block, moving_avg_udf, threads), ref);
}

INSTANTIATE_TEST_SUITE_P(Threads, ApplyBackendTest,
                         ::testing::Values(1, 2, 3, 8));

/// moving_avg_udf in row form: one pass over the channel, same
/// arithmetic per cell.
void moving_avg_row(const Stencil& s, std::span<double> out) {
  const std::span<const double> x = s.row_span(0);
  const std::size_t n = x.size();
  for (std::size_t c = 0; c < n; ++c) {
    const double left = c > 0 ? x[c - 1] : x[c];
    const double right = c + 1 < n ? x[c + 1] : x[c];
    out[c] = (left + x[c] + right) / 3.0;
  }
}

std::uint64_t cells_processed() {
  return global_counters()
      .counter(counters::kTelemetryCellsProcessed)
      .get();
}

TEST_P(ApplyBackendTest, RowFormMatchesScalarAndChargesOwnedCells) {
  const int threads = GetParam();
  // 5 owned rows between one ghost row on each side.
  const Array2D a = random_array({7, 29}, 11);
  LocalBlock block;
  block.data = a.data;
  block.block_shape = a.shape;
  block.global_row0 = 4;
  block.owned_local = Range{1, 6};
  block.global_shape = {40, 29};
  const Array2D ref = apply_cells_serial(block, moving_avg_udf);
  const std::uint64_t owned = 5 * 29;

  ThreadPool pool(static_cast<std::size_t>(threads));
  const CellRowUdf row_udf = moving_avg_row;
  std::uint64_t before = cells_processed();
  EXPECT_EQ(apply_cells_serial(block, row_udf), ref);
  EXPECT_EQ(cells_processed() - before, owned);
  before = cells_processed();
  EXPECT_EQ(apply_cells_mt(block, row_udf, pool), ref);
  EXPECT_EQ(cells_processed() - before, owned);
  before = cells_processed();
  EXPECT_EQ(apply_cells(block, row_udf, threads), ref);
  EXPECT_EQ(cells_processed() - before, owned);
}

TEST(ApplyMtTest, ResultOrderIsDeterministic) {
  // The prefix merge must place every thread's chunk at the right
  // offset regardless of completion order: value = linear cell index.
  const Shape2D shape{5, 101};
  Array2D a(shape);
  const LocalBlock block = LocalBlock::whole(a);
  const ScalarUdf idx_udf = [&shape](const Stencil& s) {
    return static_cast<double>(s.channel() * shape.cols + s.time());
  };
  ThreadPool pool(4);
  for (int rep = 0; rep < 5; ++rep) {
    const Array2D out = apply_cells_mt(block, idx_udf, pool);
    for (std::size_t i = 0; i < out.data.size(); ++i) {
      ASSERT_EQ(out.data[i], static_cast<double>(i));
    }
  }
}

TEST(ApplyTest, GhostRowsVisibleButNotIterated) {
  // 2 owned rows + 1 halo on each side; the UDF sums the channel
  // neighbours, which must read halo values, and the output has only
  // the owned rows.
  const Shape2D block_shape{4, 3};
  LocalBlock block;
  block.block_shape = block_shape;
  block.data.resize(block_shape.size());
  for (std::size_t i = 0; i < block.data.size(); ++i) {
    block.data[i] = static_cast<double>(i);
  }
  block.global_row0 = 9;              // halo row 0 is global row 9
  block.owned_local = Range{1, 3};    // owned global rows 10..11
  block.global_shape = {100, 3};

  const ScalarUdf udf = [](const Stencil& s) { return s(0, -1) + s(0, 1); };
  const Array2D out = apply_cells_serial(block, udf);
  ASSERT_EQ(out.shape, (Shape2D{2, 3}));
  // Owned row 0 (local 1): up = local 0, down = local 2.
  EXPECT_EQ(out.at(0, 0), block.data[0] + block.data[6]);
  EXPECT_EQ(out.at(1, 2), block.data[5] + block.data[11]);
}

TEST(ApplyRowsTest, RowUdfRunsOncePerOwnedChannel) {
  const Array2D a = random_array({6, 20});
  const LocalBlock block = LocalBlock::whole(a);
  // Output: [mean, max] per channel.
  const RowUdf udf = [](const Stencil& s) -> std::vector<double> {
    const std::span<const double> row = s.row_span(0);
    double mean = 0.0;
    double mx = -1e300;
    for (double v : row) {
      mean += v;
      mx = std::max(mx, v);
    }
    return {mean / static_cast<double>(row.size()), mx};
  };
  const Array2D out = apply_rows_serial(block, udf);
  ASSERT_EQ(out.shape, (Shape2D{6, 2}));
  for (std::size_t r = 0; r < 6; ++r) {
    double mean = 0.0;
    double mx = -1e300;
    for (double v : a.row(r)) {
      mean += v;
      mx = std::max(mx, v);
    }
    EXPECT_NEAR(out.at(r, 0), mean / 20.0, 1e-12);
    EXPECT_EQ(out.at(r, 1), mx);
  }
}

TEST(ApplyRowsTest, BackendsMatchAndLengthsEnforced) {
  const Array2D a = random_array({9, 17});
  const LocalBlock block = LocalBlock::whole(a);
  const RowUdf udf = [](const Stencil& s) -> std::vector<double> {
    const std::span<const double> row = s.row_span(0);
    std::vector<double> out(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) out[i] = 2.0 * row[i];
    return out;
  };
  const Array2D ref = apply_rows_serial(block, udf);
  for (const int threads : {1, 2, 3, 8}) {
    ThreadPool pool(static_cast<std::size_t>(threads));
    EXPECT_EQ(apply_rows_mt(block, udf, pool), ref) << threads;
    EXPECT_EQ(apply_rows(block, udf, threads), ref) << threads;
  }

  // Inconsistent lengths must be rejected.
  const RowUdf bad = [](const Stencil& s) -> std::vector<double> {
    return std::vector<double>(s.channel() % 2 + 1, 0.0);
  };
  EXPECT_THROW((void)apply_rows_serial(block, bad), InvalidArgument);
}

TEST(ApplyTest, ValidatesBlockConsistency) {
  LocalBlock block;
  block.block_shape = {2, 3};
  block.data.resize(5);  // wrong size
  block.owned_local = Range{0, 2};
  block.global_shape = {2, 3};
  EXPECT_THROW(
      (void)apply_cells_serial(block, [](const Stencil&) { return 0.0; }),
      InvalidArgument);
}

TEST(ApplyTest, ThreadCountEntriesNeedAThread) {
  const Array2D a = random_array({3, 8});
  const LocalBlock block = LocalBlock::whole(a);
  const CellRowUdf row_udf = moving_avg_row;
  const RowUdf rows = [](const Stencil&) { return std::vector<double>{1.0}; };
  for (const int threads : {0, -1}) {
    EXPECT_THROW((void)apply_cells(block, moving_avg_udf, threads),
                 InvalidArgument);
    EXPECT_THROW((void)apply_cells(block, row_udf, threads), InvalidArgument);
    EXPECT_THROW((void)apply_rows(block, rows, threads), InvalidArgument);
  }
}

TEST(ApplyTest, EmptyOwnedRegionGivesEmptyOutput) {
  LocalBlock block;
  block.block_shape = {2, 3};
  block.data.resize(6, 0.0);
  block.owned_local = Range{1, 1};  // nothing owned
  block.global_shape = {2, 3};
  const Array2D out =
      apply_cells_serial(block, [](const Stencil&) { return 1.0; });
  EXPECT_EQ(out.shape.rows, 0u);
  EXPECT_TRUE(out.data.empty());
}

}  // namespace
}  // namespace dassa::core
