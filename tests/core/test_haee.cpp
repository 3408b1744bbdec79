// HAEE engine tests: distributed execution must equal single-rank
// execution for both modes, halo exchange must deliver neighbour rows,
// and the hybrid/MPI configurations must expose the paper's I/O-call
// and memory-duplication structure.
#include "dassa/core/haee.hpp"

#include <gtest/gtest.h>

#include <random>

#include "dassa/common/counters.hpp"
#include "dassa/das/synth.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::core {
namespace {

using testing::TmpDir;

/// Write a small synthetic acquisition and return VCA + ground truth.
struct Fixture {
  io::Vca vca;
  Array2D truth;

  explicit Fixture(TmpDir& dir, std::size_t channels = 24,
                   std::size_t files = 3, double secs_per_file = 0.5) {
    das::SynthDas synth = das::SynthDas::fig1b_scene(channels, 100.0, 7);
    das::AcquisitionSpec spec;
    spec.dir = dir.str();
    spec.start = das::Timestamp::parse("170728224510");
    spec.file_count = files;
    spec.seconds_per_file = secs_per_file;
    spec.dtype = io::DType::kF64;
    spec.per_channel_metadata = false;
    const std::vector<std::string> paths = das::write_acquisition(synth, spec);
    vca = io::Vca::build(paths);
    truth = Array2D(vca.shape(), vca.read_all());
  }
};

/// Clamped 3x3 cross average: needs a 1-channel halo.
double cross_udf(const Stencil& s) {
  double sum = s(0, 0);
  double n = 1.0;
  for (const auto& [dt, dch] :
       {std::pair{-1, 0}, std::pair{1, 0}, std::pair{0, -1},
        std::pair{0, 1}}) {
    if (s.in_bounds(dt, dch)) {
      sum += s(dt, dch);
      n += 1.0;
    }
  }
  return sum / n;
}

class HaeeModeTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, int, int>> {};

TEST_P(HaeeModeTest, DistributedMatchesSingleRank) {
  const auto [mode, nodes, cores] = GetParam();
  TmpDir dir("haee");
  Fixture fx(dir);

  // Reference: single rank, serial.
  const Array2D ref =
      apply_cells_serial(LocalBlock::whole(fx.truth), cross_udf);

  EngineConfig config;
  config.nodes = nodes;
  config.cores_per_node = cores;
  config.mode = mode;
  config.halo_channels = 1;
  const EngineReport report = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });

  EXPECT_EQ(report.world_size, config.world_size());
  ASSERT_EQ(report.output.shape, ref.shape);
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    ASSERT_NEAR(report.output.data[i], ref.data[i], 1e-12) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HaeeModeTest,
    ::testing::Values(
        std::make_tuple(EngineMode::kHybrid, 1, 1),
        std::make_tuple(EngineMode::kHybrid, 1, 4),
        std::make_tuple(EngineMode::kHybrid, 3, 2),
        std::make_tuple(EngineMode::kHybrid, 4, 3),
        std::make_tuple(EngineMode::kMpiPerCore, 2, 2),
        std::make_tuple(EngineMode::kMpiPerCore, 3, 2)));

TEST(HaeeTest, BothReadMethodsGiveSameOutput) {
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  config.halo_channels = 1;

  config.read_method = ReadMethod::kCommunicationAvoiding;
  const EngineReport a = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });
  config.read_method = ReadMethod::kCollectivePerFile;
  const EngineReport b = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });
  EXPECT_EQ(a.output, b.output);
}

TEST(HaeeTest, HybridIssuesFewerIoCallsThanMpiPerCore) {
  // Paper Section VI-C: with k cores per node, MPI-per-core issues ~k
  // times the I/O calls of HAEE.
  TmpDir dir("haee");
  Fixture fx(dir, 32, 4, 0.3);

  // Each engine uses its natural read pattern: HAEE reads once per
  // node (communication-avoiding); original ArrayUDF has every
  // core-rank issue its own requests against every file.
  auto run_and_count = [&](EngineMode mode, ReadMethod read) {
    EngineConfig config;
    config.nodes = 2;
    config.cores_per_node = 4;
    config.mode = mode;
    config.read_method = read;
    config.halo_channels = 1;
    global_counters().reset();
    (void)run_cells(config, fx.vca, [](const RankContext&) {
      return ScalarUdf(cross_udf);
    });
    return global_counters().get(counters::kIoReadCalls);
  };

  const std::uint64_t hybrid_calls = run_and_count(
      EngineMode::kHybrid, ReadMethod::kCommunicationAvoiding);
  const std::uint64_t mpi_calls =
      run_and_count(EngineMode::kMpiPerCore, ReadMethod::kDirectPerRank);
  // 8 ranks x 4 files of direct reads vs 4 whole-file reads: the gap is
  // roughly the cores-per-node factor the paper reports.
  EXPECT_GT(mpi_calls, 4 * hybrid_calls);
}

TEST(HaeeTest, DirectPerRankReadGivesSameOutput) {
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 2;
  config.cores_per_node = 2;
  config.halo_channels = 1;
  config.read_method = ReadMethod::kCommunicationAvoiding;
  const EngineReport a = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });
  config.read_method = ReadMethod::kDirectPerRank;
  const EngineReport b = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });
  EXPECT_EQ(a.output, b.output);
}

TEST(HaeeTest, MemoryModelScalesWithRanksPerNode) {
  TmpDir dir("haee");
  Fixture fx(dir);
  const std::size_t extra = 1000;

  auto peak = [&](EngineMode mode) {
    EngineConfig config;
    config.nodes = 2;
    config.cores_per_node = 4;
    config.mode = mode;
    return run_rows(config, fx.vca,
                    [](const RankContext&) {
                      return RowUdf([](const Stencil& s) {
                        return std::vector<double>{s.row_span(0)[0]};
                      });
                    },
                    extra)
        .modeled_peak_bytes_per_node;
  };
  // MPI-per-core: 4 ranks per node each holding block+extra; hybrid
  // holds one larger block once. The duplicated `extra` makes the
  // per-node total strictly larger at equal data size.
  const auto hybrid = peak(EngineMode::kHybrid);
  const auto mpi = peak(EngineMode::kMpiPerCore);
  EXPECT_GT(mpi, hybrid / 4 + 3 * extra);
}

TEST(HaeeTest, StagesAreReported) {
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 2;
  config.cores_per_node = 2;
  const EngineReport report = run_cells(
      config, fx.vca, [](const RankContext&) {
        return ScalarUdf([](const Stencil& s) { return s(0, 0); });
      });
  EXPECT_GT(report.stages.get("read"), 0.0);
  EXPECT_GT(report.stages.get("compute"), 0.0);
  EXPECT_GT(report.stages.get("write"), 0.0);
}

TEST(HaeeTest, NoGatherLeavesOutputEmpty) {
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 2;
  config.cores_per_node = 1;
  config.gather_output = false;
  const EngineReport report = run_cells(
      config, fx.vca, [](const RankContext&) {
        return ScalarUdf([](const Stencil& s) { return s(0, 0); });
      });
  EXPECT_TRUE(report.output.data.empty());
}

TEST(HaeeTest, OversizedHaloIsRejected) {
  TmpDir dir("haee");
  Fixture fx(dir, 8, 2, 0.3);  // 8 channels
  EngineConfig config;
  config.nodes = 4;  // 2 rows per rank
  config.cores_per_node = 1;
  config.halo_channels = 3;  // > 8/4
  EXPECT_THROW(
      (void)run_cells(config, fx.vca,
                      [](const RankContext&) {
                        return ScalarUdf(
                            [](const Stencil& s) { return s(0, 0); });
                      }),
      InvalidArgument);
}

TEST(BuildLocalBlockTest, HaloRowsComeFromNeighbours) {
  // 3 ranks x 2 rows, halo 1: middle rank must see rows 1..4.
  const Shape2D global{6, 4};
  Array2D data(global);
  for (std::size_t i = 0; i < data.data.size(); ++i) {
    data.data[i] = static_cast<double>(i);
  }
  mpi::Runtime::run(3, [&](mpi::Comm& comm) {
    const Range rows = even_chunk(6, 3, static_cast<std::size_t>(comm.rank()));
    io::ParallelReadResult read;
    read.rows = rows;
    read.shape = {rows.size(), 4};
    read.halo = ghost_rows(HaloMode::kExchange, global, 3, comm.rank(), 1);
    read.data.assign((read.halo.lo + rows.size() + read.halo.hi) * 4, 0.0);
    std::copy(data.data.begin() + static_cast<std::ptrdiff_t>(rows.begin * 4),
              data.data.begin() + static_cast<std::ptrdiff_t>(rows.end * 4),
              read.data.begin() +
                  static_cast<std::ptrdiff_t>(read.halo.lo * 4));

    const LocalBlock block = build_local_block(comm, std::move(read), global);
    if (comm.rank() == 1) {
      ASSERT_EQ(block.block_shape, (Shape2D{4, 4}));
      EXPECT_EQ(block.global_row0, 1u);
      EXPECT_EQ(block.data.front(), data.at(1, 0));
      EXPECT_EQ(block.data.back(), data.at(4, 3));
    } else {
      ASSERT_EQ(block.block_shape, (Shape2D{3, 4}));  // edge ranks
    }
    // Owned region always maps to the right global rows.
    EXPECT_EQ(block.global_row0 + block.owned_local.begin, rows.begin);
  });
}

class GhostRowsTest
    : public ::testing::TestWithParam<std::tuple<HaloMode, int>> {};

TEST_P(GhostRowsTest, BlockIsASliceOfTheWholeArray) {
  // The read reserves the ghost rows and the halo stage fills them in
  // place: owned plus ghost rows equal a row slice of the whole array,
  // whichever strategy read the block.
  const auto [mode, world] = GetParam();
  TmpDir dir("haee");
  Fixture fx(dir);  // 24 channels: at least 3 per rank at world 7
  const Shape2D global = fx.vca.shape();
  const std::size_t halo = 2;
  for (const ReadMethod method :
       {ReadMethod::kCollectivePerFile, ReadMethod::kCommunicationAvoiding,
        ReadMethod::kDirectPerRank}) {
    mpi::Runtime::run(world, [&](mpi::Comm& comm) {
      const io::RowHalo ghosts =
          ghost_rows(mode, global, comm.size(), comm.rank(), halo);
      io::ParallelReadResult read =
          method == ReadMethod::kCollectivePerFile
              ? io::read_vca_collective_per_file(comm, fx.vca, {}, ghosts)
          : method == ReadMethod::kCommunicationAvoiding
              ? io::read_vca_comm_avoiding(comm, fx.vca, {}, ghosts)
              : io::read_vca_direct_per_rank(comm, fx.vca, {}, ghosts);
      const Range rows = read.rows;
      const LocalBlock block =
          mode == HaloMode::kExchange
              ? build_local_block(comm, std::move(read), global)
              : build_local_block_overlap(comm, fx.vca, std::move(read),
                                          global);
      const std::size_t lo = comm.rank() > 0 ? halo : 0;
      const std::size_t hi = comm.rank() < world - 1 ? halo : 0;
      ASSERT_EQ(block.block_shape,
                (Shape2D{lo + rows.size() + hi, global.cols}));
      EXPECT_EQ(block.owned_local, (Range{lo, lo + rows.size()}));
      EXPECT_EQ(block.global_row0 + lo, rows.begin);
      const auto first = fx.truth.data.begin() +
                         static_cast<std::ptrdiff_t>(block.global_row0 *
                                                     global.cols);
      EXPECT_EQ(block.data,
                std::vector<double>(
                    first, first + static_cast<std::ptrdiff_t>(
                                       block.data.size())));
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, GhostRowsTest,
    ::testing::Combine(::testing::Values(HaloMode::kExchange,
                                         HaloMode::kOverlapRead),
                       ::testing::Values(1, 2, 3, 4, 7)));

TEST(HaeeTest, OverlapReadHaloMatchesExchange) {
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  config.halo_channels = 1;

  config.halo_mode = HaloMode::kExchange;
  const EngineReport a = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });
  config.halo_mode = HaloMode::kOverlapRead;
  const EngineReport b = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });
  EXPECT_EQ(a.output, b.output);
}

TEST(HaeeTest, OverlapReadTradesMessagesForReads) {
  TmpDir dir("haee");
  Fixture fx(dir, 32, 4, 0.3);

  auto run_mode = [&](HaloMode halo) {
    EngineConfig config;
    config.nodes = 4;
    config.cores_per_node = 1;
    config.halo_channels = 2;
    config.halo_mode = halo;
    config.gather_output = false;
    global_counters().reset();
    const EngineReport r = run_cells(config, fx.vca, [](const RankContext&) {
      return ScalarUdf(cross_udf);
    });
    return std::pair{global_counters().get(counters::kIoReadCalls),
                     r.comm.p2p_sends};
  };
  const auto [reads_ex, msgs_ex] = run_mode(HaloMode::kExchange);
  const auto [reads_ov, msgs_ov] = run_mode(HaloMode::kOverlapRead);
  EXPECT_GT(reads_ov, reads_ex);  // overlap pays extra reads...
  EXPECT_LT(msgs_ov, msgs_ex);    // ...to avoid halo messages
}

TEST(HaeeTest, DistributedWriteMatchesGatheredOutput) {
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  config.halo_channels = 1;
  config.output_path = dir.file("engine_out.dh5");
  const EngineReport report = run_cells(
      config, fx.vca, [](const RankContext&) { return ScalarUdf(cross_udf); });

  io::Dash5File written(config.output_path);
  EXPECT_EQ(written.shape(), report.output.shape);
  EXPECT_EQ(written.read_all(), report.output.data);
  // The output carries the input's global metadata.
  EXPECT_EQ(written.global_meta().get_or_throw(io::meta::kTimeStamp),
            "170728224510");
}

TEST(HaeeTest, DistributedWriteWorksForRowUdfOutputs) {
  // Row UDFs change the output width; the writer must agree on it.
  TmpDir dir("haee");
  Fixture fx(dir);
  EngineConfig config;
  config.nodes = 4;
  config.cores_per_node = 1;
  config.output_path = dir.file("rows_out.dh5");
  const EngineReport report = run_rows(
      config, fx.vca,
      [](const RankContext&) {
        return RowUdf([](const Stencil& s) {
          const std::span<const double> row = s.row_span(0);
          double acc = 0.0;
          for (double v : row) acc += v;
          return std::vector<double>{acc, acc * 2.0, acc * 3.0};
        });
      });
  io::Dash5File written(config.output_path);
  EXPECT_EQ(written.shape(), (Shape2D{fx.vca.shape().rows, 3}));
  EXPECT_EQ(written.read_all(), report.output.data);
}

}  // namespace
}  // namespace dassa::core
