// Remaining public-API coverage: a DASH5 file read as an ArraySource,
// Array2D helpers, cost-model arithmetic.
#include <gtest/gtest.h>

#include <numeric>

#include "dassa/core/array.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/par_read.hpp"
#include "dassa/mpi/runtime.hpp"
#include "testing/tmpdir.hpp"

namespace dassa {
namespace {

using testing::TmpDir;

TEST(ArraySourceTest, Dash5FileReadsAsASource) {
  TmpDir dir("src");
  io::Dash5Header h;
  h.shape = {4, 6};
  std::vector<double> data(24);
  std::iota(data.begin(), data.end(), 0.0);
  io::dash5_write(dir.file("a.dh5"), h, data);

  const io::Dash5File file(dir.file("a.dh5"));
  const io::ArraySource& source = file;
  EXPECT_EQ(source.shape(), (Shape2D{4, 6}));
  EXPECT_EQ(source.read_all(), data);
  EXPECT_EQ(source.read_slab(Slab2D{1, 2, 2, 3}),
            (std::vector<double>{8, 9, 10, 14, 15, 16}));
  EXPECT_EQ(file.global_meta().size(), 0u);
}

TEST(Array2dTest, RowViewsAndAccessors) {
  core::Array2D a(Shape2D{3, 4}, 1.5);
  EXPECT_EQ(a.data.size(), 12u);
  a.at(1, 2) = 9.0;
  EXPECT_EQ(a.at(1, 2), 9.0);
  const std::span<double> row = a.row(1);
  EXPECT_EQ(row.size(), 4u);
  EXPECT_EQ(row[2], 9.0);
  row[0] = -1.0;
  EXPECT_EQ(a.at(1, 0), -1.0);
  EXPECT_THROW(core::Array2D(Shape2D{2, 2}, std::vector<double>(3)),
               InvalidArgument);
}

TEST(CostModelTest, MessageCostArithmetic) {
  mpi::CostParams net;
  net.alpha_seconds = 1e-6;
  net.beta_bytes_per_second = 1e9;
  EXPECT_DOUBLE_EQ(net.message_cost(0), 1e-6);
  EXPECT_DOUBLE_EQ(net.message_cost(1000000), 1e-6 + 1e-3);

  io::IoCostParams io;
  io.call_latency_seconds = 2e-3;
  io.bandwidth_bytes_per_second = 1e9;
  io.aggregate_bandwidth_bytes_per_second = 4e9;
  // Below the contention point, per-stream bandwidth rules.
  EXPECT_DOUBLE_EQ(io.effective_bandwidth(2), 1e9);
  // Above it, readers split the aggregate pool.
  EXPECT_DOUBLE_EQ(io.effective_bandwidth(8), 0.5e9);
  EXPECT_GT(io.call_cost(1 << 20, 8), io.call_cost(1 << 20, 2));
  // Shared-file seek contention adds per concurrent reader.
  EXPECT_GT(io.shared_call_cost(1024, 10), io.shared_call_cost(1024, 2));
  EXPECT_DOUBLE_EQ(io.shared_call_cost(1024, 1), io.call_cost(1024, 1));
}

TEST(CommStatsTest, ChargeModeledSecondsAccumulates) {
  mpi::Runtime::run(1, [](mpi::Comm& comm) {
    comm.charge_modeled_seconds(0.5);
    comm.charge_modeled_seconds(0.25);
    EXPECT_DOUBLE_EQ(comm.stats().modeled_seconds, 0.75);
    EXPECT_GT(comm.cost_params().beta_bytes_per_second, 0.0);
  });
}

}  // namespace
}  // namespace dassa
