// Resampling tests: length contract, tone preservation, anti-aliasing,
// amplitude fidelity.
#include "dassa/dsp/resample.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <string>
#include <utility>

#include "dassa/common/error.hpp"
#include "dsp/kernel_oracles.hpp"

namespace dassa::dsp {
namespace {

std::vector<double> tone(std::size_t n, double cycles_per_sample,
                         double amp = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(2.0 * std::numbers::pi * cycles_per_sample *
                          static_cast<double>(i));
  }
  return x;
}

TEST(ResampleTest, OutputLengthIsCeilRatio) {
  const std::vector<double> x(1000, 1.0);
  EXPECT_EQ(resample(x, 1, 2).size(), 500u);
  EXPECT_EQ(resample(x, 1, 3).size(), 334u);  // ceil(1000/3)
  EXPECT_EQ(resample(x, 2, 1).size(), 2000u);
  EXPECT_EQ(resample(x, 3, 2).size(), 1500u);
  EXPECT_EQ(resample(x, 1, 1).size(), 1000u);
}

TEST(ResampleTest, IdentityWhenFactorsEqual) {
  const std::vector<double> x{1.0, -2.0, 3.0, 0.5};
  const std::vector<double> y = resample(x, 7, 7);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(ResampleTest, EmptyInputGivesEmptyOutput) {
  const std::vector<double> x;
  EXPECT_TRUE(resample(x, 1, 4).empty());
}

TEST(ResampleTest, RejectsZeroFactors) {
  const std::vector<double> x(10, 1.0);
  EXPECT_THROW((void)resample(x, 0, 2), InvalidArgument);
  EXPECT_THROW((void)resample(x, 2, 0), InvalidArgument);
}

TEST(ResampleTest, ConstantSignalStaysConstant) {
  const std::vector<double> x(500, 3.0);
  const std::vector<double> y = resample(x, 1, 4);
  // DC gain is normalised; interior samples must equal the constant.
  for (std::size_t i = 20; i + 20 < y.size(); ++i) {
    EXPECT_NEAR(y[i], 3.0, 1e-6) << "i=" << i;
  }
}

TEST(ResampleTest, DownsamplePreservesLowFrequencyTone) {
  // 0.02 cycles/sample downsampled 4x -> 0.08 cycles/sample, still far
  // below the new Nyquist (0.5): waveform must be preserved.
  const std::size_t n = 2000;
  const double f0 = 0.02;
  const std::vector<double> x = tone(n, f0);
  const std::vector<double> y = resample(x, 1, 4);
  for (std::size_t i = 30; i + 30 < y.size(); ++i) {
    const double expect = std::sin(2.0 * std::numbers::pi * f0 *
                                   static_cast<double>(4 * i));
    EXPECT_NEAR(y[i], expect, 2e-3) << "i=" << i;
  }
}

TEST(ResampleTest, UpsamplePreservesTone) {
  const std::size_t n = 500;
  const double f0 = 0.05;
  const std::vector<double> x = tone(n, f0);
  const std::vector<double> y = resample(x, 3, 1);
  for (std::size_t i = 60; i + 60 < y.size(); ++i) {
    const double expect = std::sin(2.0 * std::numbers::pi * f0 *
                                   static_cast<double>(i) / 3.0);
    EXPECT_NEAR(y[i], expect, 2e-3) << "i=" << i;
  }
}

TEST(ResampleTest, AntiAliasRemovesAboveNewNyquist) {
  // 0.4 cycles/sample is above the post-decimation Nyquist of
  // 0.5/4 = 0.125: the anti-alias filter must kill it, not fold it.
  const std::size_t n = 4000;
  const std::vector<double> x = tone(n, 0.4, 5.0);
  const std::vector<double> y = resample(x, 1, 4);
  double max_mid = 0.0;
  for (std::size_t i = 50; i + 50 < y.size(); ++i) {
    max_mid = std::max(max_mid, std::abs(y[i]));
  }
  EXPECT_LT(max_mid, 0.05);
}

TEST(ResampleTest, MixedSignalKeepsOnlyLowBand) {
  const std::size_t n = 4000;
  std::vector<double> x = tone(n, 0.01, 2.0);
  const std::vector<double> high = tone(n, 0.45, 2.0);
  for (std::size_t i = 0; i < n; ++i) x[i] += high[i];
  const std::vector<double> y = resample(x, 1, 4);
  for (std::size_t i = 50; i + 50 < y.size(); ++i) {
    const double expect = 2.0 * std::sin(2.0 * std::numbers::pi * 0.01 *
                                         static_cast<double>(4 * i));
    EXPECT_NEAR(y[i], expect, 0.05) << "i=" << i;
  }
}

TEST(ResampleTest, FilterIsSymmetricWithUnitDc) {
  const std::vector<double> h = resample_filter(1, 4);
  ASSERT_EQ(h.size() % 2, 1u);
  for (std::size_t i = 0; i < h.size() / 2; ++i) {
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
  }
  double dc = 0.0;
  for (double v : h) dc += v;
  EXPECT_NEAR(dc, 1.0, 1e-9);  // up = 1
}

TEST(DecimateTest, MatchesResampleByOne) {
  const std::vector<double> x = tone(800, 0.03);
  const std::vector<double> a = decimate(x, 4);
  const std::vector<double> b = resample(x, 1, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// Bitwise pin: the four-at-a-time interior path (up == 1) and the
// bounds-checked loop elsewhere sum each output's taps in the oracle's
// order. Lengths run from shorter than the filter, through the
// lengths where the interior appears, to 10^4 + 3.
class ResampleOracleTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ResampleOracleTest, IsBitwiseEqual) {
  const auto [up, down] = GetParam();
  const std::size_t taps = resample_filter(up, down).size();
  std::mt19937_64 rng(up * 31 + down);
  std::normal_distribution<double> dist;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, taps / 2, taps - 1,
        taps, taps + 1, taps + 4 * down + 1, 3 * taps + 2, std::size_t{1000},
        std::size_t{10003}}) {
    std::vector<double> x(n);
    for (auto& v : x) v = dist(rng);
    const std::vector<double> got = resample(x, up, down);
    const std::vector<double> want = oracle::resample(x, up, down);
    ASSERT_EQ(got.size(), want.size()) << "n=" << n;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "n=" << n << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, ResampleOracleTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 2},
                      std::pair<std::size_t, std::size_t>{1, 3},
                      std::pair<std::size_t, std::size_t>{1, 5},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{3, 2},
                      std::pair<std::size_t, std::size_t>{4, 1}),
    [](const ::testing::TestParamInfo<std::pair<std::size_t, std::size_t>>&
           p) {
      return "up" + std::to_string(p.param.first) + "_down" +
             std::to_string(p.param.second);
    });

}  // namespace
}  // namespace dassa::dsp
