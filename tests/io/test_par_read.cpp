// Parallel read strategy tests (paper Fig. 5): both strategies and the
// RCA reference must produce identical channel blocks, with the
// communication structure the paper describes (O(n) broadcasts vs one
// all-to-all).
#include "dassa/io/par_read.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "dassa/common/counters.hpp"
#include "dassa/mpi/runtime.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::io {
namespace {

using testing::TmpDir;

struct Fixture {
  Shape2D global;
  std::vector<double> data;
  std::vector<std::string> files;

  Fixture(TmpDir& dir, std::size_t rows, std::size_t files_n,
          std::size_t cols_each) {
    global = {rows, files_n * cols_each};
    data.resize(global.size());
    std::mt19937_64 rng(5);
    std::normal_distribution<double> dist;
    for (auto& v : data) v = dist(rng);
    for (std::size_t i = 0; i < files_n; ++i) {
      const Shape2D fshape{rows, cols_each};
      std::vector<double> fdata(fshape.size());
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols_each; ++c) {
          fdata[fshape.at(r, c)] = data[global.at(r, i * cols_each + c)];
        }
      }
      Dash5Header h;
      h.shape = fshape;
      const std::string path = dir.file("f" + std::to_string(i) + ".dh5");
      dash5_write(path, h, fdata);
      files.push_back(path);
    }
  }

  /// The channel block rank `r` of `p` must end up with.
  std::vector<double> expected_block(int p, int r) const {
    const Range rows = even_chunk(global.rows, static_cast<std::size_t>(p),
                                  static_cast<std::size_t>(r));
    std::vector<double> out((rows.end - rows.begin) * global.cols);
    for (std::size_t row = rows.begin; row < rows.end; ++row) {
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(
                                   global.at(row, 0)),
                data.begin() + static_cast<std::ptrdiff_t>(
                                   global.at(row, 0) + global.cols),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  (row - rows.begin) * global.cols));
    }
    return out;
  }
};

class ParReadTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ParReadTest, CollectivePerFileAssemblesCorrectBlocks) {
  const auto [p, files_n] = GetParam();
  TmpDir dir("pr");
  Fixture fx(dir, 12, files_n, 6);
  Vca vca = Vca::build(fx.files);
  mpi::Runtime::run(p, [&](mpi::Comm& comm) {
    const ParallelReadResult res = read_vca_collective_per_file(comm, vca);
    EXPECT_EQ(res.data, fx.expected_block(comm.size(), comm.rank()));
  });
}

TEST_P(ParReadTest, CommAvoidingAssemblesCorrectBlocks) {
  const auto [p, files_n] = GetParam();
  TmpDir dir("pr");
  Fixture fx(dir, 12, files_n, 6);
  Vca vca = Vca::build(fx.files);
  mpi::Runtime::run(p, [&](mpi::Comm& comm) {
    const ParallelReadResult res = read_vca_comm_avoiding(comm, vca);
    EXPECT_EQ(res.data, fx.expected_block(comm.size(), comm.rank()));
  });
}

TEST_P(ParReadTest, RcaDirectAssemblesCorrectBlocks) {
  const auto [p, files_n] = GetParam();
  TmpDir dir("pr");
  Fixture fx(dir, 12, files_n, 6);
  (void)rca_create(fx.files, dir.file("merged.dh5"));
  mpi::Runtime::run(p, [&](mpi::Comm& comm) {
    const ParallelReadResult res =
        read_rca_direct(comm, dir.file("merged.dh5"));
    EXPECT_EQ(res.data, fx.expected_block(comm.size(), comm.rank()));
  });
}

TEST_P(ParReadTest, HaloReadsReserveZeroGhostRows) {
  // Each strategy sizes its block once with the ghost rows asked for:
  // owned rows at row halo.lo, ghost rows left zero for the halo stage.
  const auto [p, files_n] = GetParam();
  TmpDir dir("pr");
  Fixture fx(dir, 12, files_n, 6);
  (void)rca_create(fx.files, dir.file("merged.dh5"));
  Vca vca = Vca::build(fx.files);
  using Reader = std::function<ParallelReadResult(mpi::Comm&, RowHalo)>;
  const std::vector<Reader> readers = {
      [&](mpi::Comm& c, RowHalo h) {
        return read_vca_collective_per_file(c, vca, {}, h);
      },
      [&](mpi::Comm& c, RowHalo h) {
        return read_vca_comm_avoiding(c, vca, {}, h);
      },
      [&](mpi::Comm& c, RowHalo h) {
        return read_vca_direct_per_rank(c, vca, {}, h);
      },
      [&](mpi::Comm& c, RowHalo h) {
        return read_rca_direct(c, dir.file("merged.dh5"), {}, h);
      }};
  for (const Reader& read : readers) {
    mpi::Runtime::run(p, [&](mpi::Comm& comm) {
      const Range rows =
          even_chunk(fx.global.rows, static_cast<std::size_t>(comm.size()),
                     static_cast<std::size_t>(comm.rank()));
      const RowHalo halo{std::min<std::size_t>(2, rows.begin),
                         std::min<std::size_t>(2, fx.global.rows - rows.end)};
      const ParallelReadResult res = read(comm, halo);
      EXPECT_EQ(res.halo.lo, halo.lo);
      EXPECT_EQ(res.halo.hi, halo.hi);
      const std::size_t cols = fx.global.cols;
      ASSERT_EQ(res.data.size(), (halo.lo + rows.size() + halo.hi) * cols);
      const auto owned_begin =
          res.data.begin() + static_cast<std::ptrdiff_t>(halo.lo * cols);
      EXPECT_EQ(std::vector<double>(
                    owned_begin, owned_begin + static_cast<std::ptrdiff_t>(
                                                   rows.size() * cols)),
                fx.expected_block(comm.size(), comm.rank()));
      for (std::size_t i = 0; i < halo.lo * cols; ++i) {
        ASSERT_EQ(res.data[i], 0.0);
      }
      for (std::size_t i = (halo.lo + rows.size()) * cols;
           i < res.data.size(); ++i) {
        ASSERT_EQ(res.data[i], 0.0);
      }
    });
  }
  // Ghost rows above channel 0 do not exist.
  EXPECT_THROW(mpi::Runtime::run(1,
                                 [&](mpi::Comm& comm) {
                                   (void)readers[1](comm, RowHalo{1, 0});
                                 }),
               InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ParReadTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{9})));

TEST(ParReadCountsTest, CollectivePerFileBroadcastsPerFile) {
  // The defining property of Fig. 5a: one broadcast per member file.
  TmpDir dir("prc");
  const std::size_t n_files = 6;
  Fixture fx(dir, 8, n_files, 4);
  Vca vca = Vca::build(fx.files);
  global_counters().reset();
  mpi::Runtime::run(4, [&](mpi::Comm& comm) {
    (void)read_vca_collective_per_file(comm, vca);
  });
  EXPECT_EQ(global_counters().get(counters::kMpiBcasts), n_files);
  EXPECT_EQ(global_counters().get(counters::kMpiAlltoalls), 0u);
}

TEST(ParReadCountsTest, CommAvoidingUsesOneAlltoall) {
  // The defining property of Fig. 5b: a single all-to-all, regardless
  // of the file count.
  TmpDir dir("prc");
  Fixture fx(dir, 8, 6, 4);
  Vca vca = Vca::build(fx.files);
  global_counters().reset();
  mpi::Runtime::run(4, [&](mpi::Comm& comm) {
    (void)read_vca_comm_avoiding(comm, vca);
  });
  EXPECT_EQ(global_counters().get(counters::kMpiAlltoalls), 1u);
  EXPECT_EQ(global_counters().get(counters::kMpiBcasts), 0u);
}

TEST(ParReadCountsTest, BothStrategiesReadEachFileOnce) {
  TmpDir dir("prc");
  const std::size_t n_files = 5;
  Fixture fx(dir, 8, n_files, 4);
  Vca vca = Vca::build(fx.files);

  for (int strategy = 0; strategy < 2; ++strategy) {
    global_counters().reset();
    mpi::Runtime::run(4, [&](mpi::Comm& comm) {
      if (strategy == 0) {
        (void)read_vca_collective_per_file(comm, vca);
      } else {
        (void)read_vca_comm_avoiding(comm, vca);
      }
    });
    // One data read per file: read calls = n_files data reads plus the
    // small header reads at open (3 each: magic, size, header block).
    const std::uint64_t data_reads =
        global_counters().get(counters::kIoReadCalls) - 3 * n_files;
    EXPECT_EQ(data_reads, n_files) << "strategy " << strategy;
  }
}

TEST(ParReadCountsTest, CommAvoidingModeledTimeWinsAtScale) {
  // Under the alpha-beta model the collective-per-file strategy pays
  // a broadcast per file and must model slower than the single
  // all-to-all of the communication-avoiding strategy.
  TmpDir dir("prc");
  Fixture fx(dir, 16, 12, 8);
  Vca vca = Vca::build(fx.files);

  const auto run = [&](auto reader) {
    return mpi::Runtime::run(8, [&](mpi::Comm& comm) {
      (void)reader(comm, vca, IoCostParams{});
    });
  };
  const double t_collective =
      run([](mpi::Comm& c, const Vca& v, const IoCostParams& io) {
        return read_vca_collective_per_file(c, v, io);
      }).aggregate().modeled_seconds;
  const double t_avoiding =
      run([](mpi::Comm& c, const Vca& v, const IoCostParams& io) {
        return read_vca_comm_avoiding(c, v, io);
      }).aggregate().modeled_seconds;
  EXPECT_LT(t_avoiding, t_collective);
}

TEST(ParReadTest, MoreRanksThanFilesStillCorrect) {
  TmpDir dir("pr");
  Fixture fx(dir, 10, 2, 5);
  Vca vca = Vca::build(fx.files);
  mpi::Runtime::run(5, [&](mpi::Comm& comm) {
    const ParallelReadResult res = read_vca_comm_avoiding(comm, vca);
    EXPECT_EQ(res.data, fx.expected_block(comm.size(), comm.rank()));
  });
}

TEST(ParReadTest, MoreRanksThanRowsStillCorrect) {
  TmpDir dir("pr");
  Fixture fx(dir, 3, 2, 4);
  Vca vca = Vca::build(fx.files);
  mpi::Runtime::run(5, [&](mpi::Comm& comm) {
    const ParallelReadResult res = read_vca_comm_avoiding(comm, vca);
    EXPECT_EQ(res.data, fx.expected_block(comm.size(), comm.rank()));
    if (comm.rank() >= 3) {
      EXPECT_TRUE(res.data.empty());
    }
  });
}


TEST(ParReadTest, DirectPerRankAssemblesCorrectBlocks) {
  TmpDir dir("pr");
  Fixture fx(dir, 12, 4, 6);
  Vca vca = Vca::build(fx.files);
  mpi::Runtime::run(3, [&](mpi::Comm& comm) {
    const ParallelReadResult res = read_vca_direct_per_rank(comm, vca);
    EXPECT_EQ(res.data, fx.expected_block(comm.size(), comm.rank()));
  });
}

TEST(ParReadCountsTest, DirectPerRankScalesWithRanksTimesFiles) {
  // O(p * n) I/O requests: the access pattern whose IOPS pressure the
  // paper's HAEE + communication-avoiding design eliminates.
  TmpDir dir("prc");
  const std::size_t n_files = 5;
  Fixture fx(dir, 8, n_files, 4);
  Vca vca = Vca::build(fx.files);

  auto data_reads = [&](int p) {
    global_counters().reset();
    mpi::Runtime::run(p, [&](mpi::Comm& comm) {
      (void)read_vca_direct_per_rank(comm, vca);
    });
    // Subtract the 3 header reads per open; each rank opens each file.
    return global_counters().get(counters::kIoReadCalls) -
           3 * n_files * static_cast<std::uint64_t>(p);
  };
  EXPECT_EQ(data_reads(1), n_files);
  EXPECT_EQ(data_reads(4), 4 * n_files);
  // No communication at all.
  EXPECT_EQ(global_counters().get(counters::kMpiP2pMsgs), 0u);
}

/// The message of the FormatError `read` throws; fails the test if it
/// throws none.
std::string format_error(const std::function<void()>& read) {
  try {
    read();
  } catch (const FormatError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no FormatError";
  return {};
}

TEST(ParReadTest, MemberRewrittenAfterBuildIsRefusedNotMisread) {
  TmpDir dir("prw");
  Fixture fx(dir, 6, 3, 5);
  const Vca vca = Vca::build(fx.files);
  // Member 1 (VCA columns [5, 10)) is rewritten two columns wider.
  Dash5Header h;
  h.shape = {6, 7};
  dash5_write(fx.files[1], h, std::vector<double>(h.shape.size(), 1.0));

  // A window inside member 0 still reads; one inside member 1 does not.
  EXPECT_EQ(vca.read_slab({1, 1, 2, 3}).front(), fx.data[fx.global.at(1, 1)]);
  EXPECT_NE(format_error([&] { (void)vca.read_slab({1, 6, 2, 3}); })
                .find(fx.files[1]),
            std::string::npos);
  EXPECT_NE(format_error([&] {
              mpi::Runtime::run(2, [&](mpi::Comm& comm) {
                (void)read_vca_direct_per_rank(comm, vca);
              });
            }).find(fx.files[1]),
            std::string::npos);
}

}  // namespace
}  // namespace dassa::io
