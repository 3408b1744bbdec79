// Case-study pipeline tests: local similarity detects coherent events,
// interferometry chain behaves, baseline and DASSA produce identical
// numerics, distributed equals single-node.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/das/baseline.hpp"
#include "dassa/das/interferometry.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/synth.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::das {
using dassa::global_counters;
namespace counters = dassa::counters;
namespace {

using testing::TmpDir;

// ---------- local similarity ---------------------------------------------

TEST(LocalSimilarityTest, CoherentSignalScoresHigherThanNoise) {
  // Channels share a common waveform during [100, 200): similarity
  // there must be near 1; in the noise-only region it stays low.
  const Shape2D shape{8, 300};
  core::Array2D data(shape);
  std::mt19937_64 rng(3);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = 0.5 * dist(rng);
  for (std::size_t ch = 0; ch < shape.rows; ++ch) {
    for (std::size_t t = 100; t < 200; ++t) {
      data.at(ch, t) += 5.0 * std::sin(0.3 * static_cast<double>(t));
    }
  }
  LocalSimilarityParams p;
  p.window_half = 10;
  p.lag_half = 3;
  p.channel_offset = 1;
  const core::Array2D sim = local_similarity(data, p, 1);
  ASSERT_EQ(sim.shape, shape);

  double coherent = 0.0;
  double noise = 0.0;
  for (std::size_t ch = 2; ch < 6; ++ch) {
    for (std::size_t t = 130; t < 170; ++t) coherent += sim.at(ch, t);
    for (std::size_t t = 30; t < 70; ++t) noise += sim.at(ch, t);
  }
  EXPECT_GT(coherent / (4 * 40), 0.8);
  EXPECT_LT(noise / (4 * 40), 0.6);
  EXPECT_GT(coherent, 1.5 * noise);
}

TEST(LocalSimilarityTest, EdgesReturnZero) {
  const core::Array2D data(Shape2D{5, 60}, 1.0);
  LocalSimilarityParams p;
  p.window_half = 5;
  p.lag_half = 2;
  p.channel_offset = 1;
  const core::Array2D sim = local_similarity(data, p, 1);
  // First/last channels lack a +-K neighbour; early/late times lack the
  // full window.
  for (std::size_t t = 0; t < 60; ++t) {
    EXPECT_EQ(sim.at(0, t), 0.0);
    EXPECT_EQ(sim.at(4, t), 0.0);
  }
  for (std::size_t ch = 0; ch < 5; ++ch) {
    EXPECT_EQ(sim.at(ch, 0), 0.0);
    EXPECT_EQ(sim.at(ch, 6), 0.0);  // M+L = 7 samples needed on each side
  }
}

TEST(LocalSimilarityTest, ScoresAreInUnitInterval) {
  core::Array2D data(Shape2D{6, 80});
  std::mt19937_64 rng(8);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);
  LocalSimilarityParams p;
  p.window_half = 4;
  p.lag_half = 2;
  const core::Array2D sim = local_similarity(data, p, 1);
  for (double v : sim.data) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(LocalSimilarityTest, ThreadCountDoesNotChangeResult) {
  core::Array2D data(Shape2D{6, 64});
  std::mt19937_64 rng(12);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);
  LocalSimilarityParams p;
  p.window_half = 3;
  p.lag_half = 2;
  const core::Array2D serial = local_similarity(data, p, 1);
  for (const int threads : {2, 3, 4, 8}) {
    EXPECT_EQ(local_similarity(data, p, threads), serial) << threads;
  }
  EXPECT_THROW((void)local_similarity(data, p, 0), InvalidArgument);
}

TEST(LocalSimilarityTest, DistributedMatchesSingleNode) {
  TmpDir dir("ls");
  const SynthDas synth = SynthDas::fig1b_scene(18, 50.0, 5);
  AcquisitionSpec spec;
  spec.dir = dir.str();
  spec.start = Timestamp::parse("170728224510");
  spec.file_count = 2;
  spec.seconds_per_file = 1.0;
  spec.dtype = io::DType::kF64;
  spec.per_channel_metadata = false;
  io::Vca vca = io::Vca::build(write_acquisition(synth, spec));

  LocalSimilarityParams p;
  p.window_half = 4;
  p.lag_half = 2;
  p.channel_offset = 2;

  const core::Array2D local = local_similarity(
      core::Array2D(vca.shape(), vca.read_all()), p, 1);

  core::EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  const core::EngineReport report =
      local_similarity_distributed(config, vca, p);
  EXPECT_EQ(report.output, local);
}

// ---------- interferometry ------------------------------------------------

InterferometryParams test_params() {
  InterferometryParams p;
  p.sampling_hz = 100.0;
  p.butter_order = 2;
  p.band_lo_hz = 2.0;
  p.band_hi_hz = 30.0;
  p.resample_up = 1;
  p.resample_down = 2;
  p.master_channel = 0;
  return p;
}

TEST(InterferometryTest, PreprocessShrinksByResampleFactor) {
  const InterferometryParams p = test_params();
  const std::vector<double> x(400, 1.0);
  const std::vector<double> y = interferometry_preprocess(x, p);
  EXPECT_EQ(y.size(), 200u);
}

TEST(InterferometryTest, PreprocessRemovesDcAndHighFreq) {
  const InterferometryParams p = test_params();
  std::vector<double> x(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) / p.sampling_hz;
    x[i] = 10.0                                      // DC: below band
           + std::sin(2.0 * std::numbers::pi * 10.0 * t)  // in band
           + std::sin(2.0 * std::numbers::pi * 45.0 * t); // above band
  }
  const std::vector<double> y = interferometry_preprocess(x, p);
  // DC is gone.
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
  // The in-band tone survives with meaningful energy.
  double rms = 0.0;
  for (std::size_t i = 50; i + 50 < y.size(); ++i) rms += y[i] * y[i];
  rms = std::sqrt(rms / static_cast<double>(y.size() - 100));
  EXPECT_GT(rms, 0.3);
}

TEST(InterferometryTest, MasterChannelCorrelatesPerfectlyWithItself) {
  const InterferometryParams p = test_params();
  core::Array2D data(Shape2D{4, 300});
  std::mt19937_64 rng(4);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);
  const core::Array2D out = interferometry_single_node(data, p, 1);
  ASSERT_EQ(out.shape, (Shape2D{4, 1}));
  EXPECT_NEAR(out.at(0, 0), 1.0, 1e-9);  // master vs itself
  for (std::size_t ch = 1; ch < 4; ++ch) {
    EXPECT_GE(out.at(ch, 0), 0.0);
    EXPECT_LE(out.at(ch, 0), 1.0 + 1e-12);
  }
}

TEST(InterferometryTest, IdenticalChannelsAllScoreOne) {
  const InterferometryParams p = test_params();
  core::Array2D data(Shape2D{3, 256});
  for (std::size_t ch = 0; ch < 3; ++ch) {
    for (std::size_t t = 0; t < 256; ++t) {
      data.at(ch, t) = std::sin(0.4 * static_cast<double>(t)) +
                       0.2 * std::sin(1.1 * static_cast<double>(t));
    }
  }
  const core::Array2D out = interferometry_single_node(data, p, 1);
  for (std::size_t ch = 0; ch < 3; ++ch) {
    EXPECT_NEAR(out.at(ch, 0), 1.0, 1e-6);
  }
}

TEST(InterferometryTest, FullCorrelationPeaksAtSharedLag) {
  InterferometryParams p = test_params();
  p.full_correlation = true;
  core::Array2D data(Shape2D{2, 400});
  std::mt19937_64 rng(6);
  std::normal_distribution<double> dist;
  std::vector<double> common(400);
  for (auto& v : common) v = dist(rng);
  // Channel 1 = channel 0 (no lag): circular correlation must peak at 0.
  for (std::size_t t = 0; t < 400; ++t) {
    data.at(0, t) = common[t];
    data.at(1, t) = common[t];
  }
  const core::Array2D out = interferometry_single_node(data, p, 1);
  ASSERT_EQ(out.shape.cols, 200u);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < out.shape.cols; ++i) {
    if (out.at(1, i) > out.at(1, argmax)) argmax = i;
  }
  EXPECT_EQ(argmax, 0u);
}

TEST(InterferometryTest, ThreadCountDoesNotChangeResult) {
  core::Array2D data(Shape2D{11, 300});
  std::mt19937_64 rng(21);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);
  for (const bool full : {false, true}) {
    InterferometryParams p = test_params();
    p.full_correlation = full;
    const core::Array2D serial = interferometry_single_node(data, p, 1);
    for (const int threads : {2, 3, 8}) {
      EXPECT_EQ(interferometry_single_node(data, p, threads), serial)
          << threads << (full ? " threads, full correlation" : " threads");
    }
  }
  EXPECT_THROW((void)interferometry_single_node(data, test_params(), 0),
               InvalidArgument);
  EXPECT_THROW((void)dassa_interferometry(data, test_params(), 0),
               InvalidArgument);
}

TEST(InterferometryTest, DistributedMatchesSingleNodeBothModes) {
  TmpDir dir("intf");
  const SynthDas synth = SynthDas::fig1b_scene(12, 100.0, 13);
  AcquisitionSpec spec;
  spec.dir = dir.str();
  spec.start = Timestamp::parse("170728224510");
  spec.file_count = 3;
  spec.seconds_per_file = 1.0;
  spec.dtype = io::DType::kF64;
  spec.per_channel_metadata = false;
  io::Vca vca = io::Vca::build(write_acquisition(synth, spec));

  const InterferometryParams p = test_params();
  const core::Array2D ref = interferometry_single_node(
      core::Array2D(vca.shape(), vca.read_all()), p, 1);

  for (const auto mode :
       {core::EngineMode::kHybrid, core::EngineMode::kMpiPerCore}) {
    core::EngineConfig config;
    config.nodes = 3;
    config.cores_per_node = 2;
    config.mode = mode;
    const core::EngineReport report =
        interferometry_distributed(config, vca, p);
    ASSERT_EQ(report.output.shape, ref.shape);
    for (std::size_t i = 0; i < ref.data.size(); ++i) {
      ASSERT_NEAR(report.output.data[i], ref.data[i], 1e-9);
    }
  }
}

TEST(InterferometryTest, MasterChannelCopiesCountedPerRank) {
  TmpDir dir("intf");
  const SynthDas synth = SynthDas::fig1b_scene(12, 100.0, 13);
  AcquisitionSpec spec;
  spec.dir = dir.str();
  spec.start = Timestamp::parse("170728224510");
  spec.file_count = 2;
  spec.seconds_per_file = 1.0;
  spec.per_channel_metadata = false;
  io::Vca vca = io::Vca::build(write_acquisition(synth, spec));
  const InterferometryParams p = test_params();

  auto copies = [&](core::EngineMode mode) {
    core::EngineConfig config;
    config.nodes = 2;
    config.cores_per_node = 3;
    config.mode = mode;
    global_counters().reset();
    (void)interferometry_distributed(config, vca, p);
    return global_counters().get(counters::kMemMasterChannelCopies);
  };
  // HAEE: one copy per node. MPI-per-core: one per core -- the paper's
  // k-fold duplication.
  EXPECT_EQ(copies(core::EngineMode::kHybrid), 2u);
  EXPECT_EQ(copies(core::EngineMode::kMpiPerCore), 6u);
}

// ---------- baseline vs DASSA ---------------------------------------------

TEST(BaselineTest, BaselineMatchesDassaNumerics) {
  const InterferometryParams p = test_params();
  core::Array2D data(Shape2D{6, 300});
  std::mt19937_64 rng(5);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);

  const BaselineReport matlab = baseline_interferometry(data, p);
  const BaselineReport dassa = dassa_interferometry(data, p, 2);
  ASSERT_EQ(matlab.output.shape, dassa.output.shape);
  for (std::size_t i = 0; i < matlab.output.data.size(); ++i) {
    EXPECT_NEAR(matlab.output.data[i], dassa.output.data[i], 1e-9);
  }
}

TEST(BaselineTest, BaselineMaterialisesTemporariesAndCopies) {
  const InterferometryParams p = test_params();
  core::Array2D data(Shape2D{4, 300});
  std::mt19937_64 rng(15);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);

  const BaselineReport report = baseline_interferometry(data, p);
  EXPECT_EQ(report.full_array_temporaries, 4u);
  // At least one argument copy per stage per channel plus temporaries.
  EXPECT_GT(report.bytes_copied,
            4 * data.data.size() * sizeof(double));
  // Stage-wise timing covers the whole pipeline.
  EXPECT_GT(report.stages.get("compute.filtfilt"), 0.0);
  EXPECT_GT(report.stages.get("compute.fft"), 0.0);
}

TEST(BaselineTest, FullCorrelationModeMatchesToo) {
  InterferometryParams p = test_params();
  p.full_correlation = true;
  core::Array2D data(Shape2D{3, 200});
  std::mt19937_64 rng(16);
  std::normal_distribution<double> dist;
  for (auto& v : data.data) v = dist(rng);
  const BaselineReport matlab = baseline_interferometry(data, p);
  const BaselineReport dassa = dassa_interferometry(data, p, 1);
  ASSERT_EQ(matlab.output.shape, dassa.output.shape);
  for (std::size_t i = 0; i < matlab.output.data.size(); ++i) {
    EXPECT_NEAR(matlab.output.data[i], dassa.output.data[i], 1e-9);
  }
}

}  // namespace
}  // namespace dassa::das
