// The Algorithm 2 row kernel against its per-cell oracle
// (similarity_oracle.hpp) over a parameter grid: window half-width M,
// lag half-width L, channel offset K, and the global column col0 at
// which the array starts (which moves the kernel's anchor columns).
//
// Stated tolerances: |kernel - oracle| <= 1e-12 on unit noise with a
// 50x burst, <= 1e-9 at 1000x contrast (plain running sums would carry
// about eps * contrast^2 of cancellation error after a burst; the
// kernel's drift limit keeps it near 1e-14 here). Wherever the oracle returns exactly 0 --
// edges, channels without a +-K neighbour, rows shorter than
// 2(M+L)+1, all-zero windows -- the kernel must return exactly 0 too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "das/similarity_oracle.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::das {
namespace {

struct Scene {
  std::string name;
  core::Array2D data;
  double tolerance = 0.0;
};

core::Array2D unit_noise(Shape2D shape, std::uint64_t seed) {
  core::Array2D a(shape);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  for (auto& v : a.data) v = dist(rng);
  return a;
}

/// Unit noise plus a coherent burst of `amplitude` over columns
/// [150, 230) that moves out by one column per channel (so the best
/// lag is not always 0).
core::Array2D burst(double amplitude, std::uint64_t seed) {
  core::Array2D a = unit_noise({8, 400}, seed);
  for (std::size_t ch = 0; ch < a.shape.rows; ++ch) {
    for (std::size_t t = 150; t < 230; ++t) {
      a.at(ch, t) +=
          amplitude * std::sin(0.2 * static_cast<double>(t - ch));
    }
  }
  return a;
}

/// Unit noise with a dead (all-zero) channel 3 and an all-zero segment
/// [120, 220) inside live channel 5.
core::Array2D holes(std::uint64_t seed) {
  core::Array2D a = unit_noise({8, 400}, seed);
  for (std::size_t t = 0; t < a.shape.cols; ++t) a.at(3, t) = 0.0;
  for (std::size_t t = 120; t < 220; ++t) a.at(5, t) = 0.0;
  return a;
}

std::vector<Scene> scenes(const LocalSimilarityParams& p) {
  const std::size_t span = 2 * (p.window_half + p.lag_half) + 1;
  return {
      {"burst50", burst(50.0, 1), 1e-12},
      {"burst1000", burst(1000.0, 2), 1e-9},
      {"holes", holes(3), 1e-12},
      {"short", unit_noise({8, span - 1}, 4), 1e-12},
      {"exact_span", unit_noise({8, span}, 5), 1e-12},
  };
}

io::Vca write_vca(const testing::TmpDir& dir, const std::string& name,
                  const core::Array2D& a) {
  io::Dash5Header h;
  h.shape = a.shape;
  const std::string path = dir.file(name + ".dh5");
  io::dash5_write(path, h, a.data);
  return io::Vca::build({path});
}

/// Every cell within `tol` of the oracle, and exactly 0 wherever the
/// oracle is exactly 0.
void expect_matches(const core::Array2D& got, const core::Array2D& want,
                    double tol, const std::string& what) {
  ASSERT_EQ(got.shape, want.shape) << what;
  double worst = 0.0;
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < want.data.size(); ++i) {
    ASSERT_TRUE(std::isfinite(got.data[i])) << what << " cell " << i;
    if (want.data[i] == 0.0) {
      ++zeros;
      EXPECT_EQ(got.data[i], 0.0) << what << " cell " << i;
    }
    worst = std::max(worst, std::abs(got.data[i] - want.data[i]));
  }
  EXPECT_LE(worst, tol) << what;
  // Every scene has edge cells, so the exact-zero path is exercised.
  EXPECT_GT(zeros, 0U) << what;
}

using Grid = std::tuple<std::size_t, std::size_t, std::size_t>;  // M, L, K

class SimilarityOracleTest : public ::testing::TestWithParam<Grid> {};

TEST_P(SimilarityOracleTest, RowKernelMatchesOracle) {
  LocalSimilarityParams p;
  std::tie(p.window_half, p.lag_half, p.channel_offset) = GetParam();
  testing::TmpDir dir("sim_oracle");
  core::EngineConfig engine;
  engine.nodes = 2;
  engine.cores_per_node = 2;

  for (const Scene& scene : scenes(p)) {
    const core::Array2D want = similarity_oracle(scene.data, p);
    expect_matches(local_similarity(scene.data, p, 2), want, scene.tolerance,
                   scene.name + " single-node");
    const io::Vca vca = write_vca(dir, scene.name, scene.data);
    for (const std::size_t col0 :
         std::vector<std::size_t>{0, 7, 31, 32, 45}) {
      const core::Array2D got =
          local_similarity_distributed(engine, vca, p, col0).output;
      expect_matches(got, want, scene.tolerance,
                     scene.name + " col0=" + std::to_string(col0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimilarityOracleTest,
    ::testing::Combine(::testing::Values(1, 4, 25), ::testing::Values(0, 3, 10),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<Grid>& grid) {
      return "M" + std::to_string(std::get<0>(grid.param)) + "_L" +
             std::to_string(std::get<1>(grid.param)) + "_K" +
             std::to_string(std::get<2>(grid.param));
    });

TEST(SimilarityOracleTest, AnchorsFollowGlobalColumns) {
  // A window of a longer stream, analysed with its global start as
  // col0, reproduces the whole-stream result bit for bit once a cell
  // sits B - 1 columns past the window's first computable column.
  LocalSimilarityParams p;
  p.window_half = 6;
  p.lag_half = 3;
  const core::Array2D whole = burst(1000.0, 6);
  testing::TmpDir dir("sim_anchor");
  core::EngineConfig engine;
  const core::Array2D full =
      local_similarity_distributed(engine, write_vca(dir, "whole", whole), p)
          .output;
  for (const std::size_t start : std::vector<std::size_t>{1, 40, 77, 128}) {
    core::Array2D part({whole.shape.rows, whole.shape.cols - start});
    for (std::size_t ch = 0; ch < whole.shape.rows; ++ch) {
      for (std::size_t t = 0; t < part.shape.cols; ++t) {
        part.at(ch, t) = whole.at(ch, t + start);
      }
    }
    const core::Array2D got =
        local_similarity_distributed(
            engine, write_vca(dir, "part" + std::to_string(start), part), p,
            start)
            .output;
    const std::size_t from =
        p.window_half + p.lag_half + kSimilarityAnchor - 1;
    for (std::size_t ch = 0; ch < whole.shape.rows; ++ch) {
      for (std::size_t t = from; t < part.shape.cols; ++t) {
        ASSERT_EQ(got.at(ch, t), full.at(ch, t + start))
            << "start " << start << " ch " << ch << " t " << t;
      }
    }
  }
}

TEST(SimilarityOracleTest, RejectsInvalidParameters) {
  const core::Array2D data = unit_noise({4, 64}, 7);
  LocalSimilarityParams p;
  p.window_half = 0;
  EXPECT_THROW((void)local_similarity(data, p, 1), InvalidArgument);
  p = LocalSimilarityParams{};
  p.channel_offset = 0;
  EXPECT_THROW((void)local_similarity(data, p, 1), InvalidArgument);
  p = LocalSimilarityParams{};
  p.lag_half = std::numeric_limits<std::size_t>::max() - 2;
  EXPECT_THROW((void)local_similarity(data, p, 1), InvalidArgument);
}

}  // namespace
}  // namespace dassa::das
