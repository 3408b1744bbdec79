// IIR filtering tests: lfilter reference behaviour, steady-state
// initial conditions, filtfilt zero-phase property.
#include "dassa/dsp/filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <string>
#include <tuple>

#include "dassa/common/error.hpp"
#include "dassa/dsp/butterworth.hpp"
#include "dsp/kernel_oracles.hpp"

namespace dassa::dsp {
namespace {

TEST(LfilterTest, FirMovingAverage) {
  // b = [1/3 1/3 1/3], a = [1]: causal 3-point moving average.
  const FilterCoeffs f{{1.0 / 3, 1.0 / 3, 1.0 / 3}, {1.0}};
  const std::vector<double> x{3.0, 6.0, 9.0, 12.0};
  const std::vector<double> y = lfilter(f, x);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(y[0], 1.0, 1e-12);
  EXPECT_NEAR(y[1], 3.0, 1e-12);
  EXPECT_NEAR(y[2], 6.0, 1e-12);
  EXPECT_NEAR(y[3], 9.0, 1e-12);
}

TEST(LfilterTest, FirstOrderIirMatchesRecurrence) {
  // y[n] = x[n] + 0.5 y[n-1]  <=>  b = [1], a = [1, -0.5].
  const FilterCoeffs f{{1.0}, {1.0, -0.5}};
  const std::vector<double> x{1.0, 0.0, 0.0, 0.0, 0.0};
  const std::vector<double> y = lfilter(f, x);
  double expect = 1.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], expect, 1e-12);
    expect *= 0.5;
  }
}

TEST(LfilterTest, NormalisesByA0) {
  const FilterCoeffs f{{2.0}, {2.0, -1.0}};
  const FilterCoeffs g{{1.0}, {1.0, -0.5}};
  const std::vector<double> x{1.0, 2.0, -1.0, 0.5};
  const std::vector<double> yf = lfilter(f, x);
  const std::vector<double> yg = lfilter(g, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(yf[i], yg[i], 1e-12);
  }
}

TEST(LfilterTest, RejectsEmptyAndZeroA0) {
  const std::vector<double> x{1.0, 2.0};
  EXPECT_THROW((void)lfilter(FilterCoeffs{{}, {1.0}}, x), InvalidArgument);
  EXPECT_THROW((void)lfilter(FilterCoeffs{{1.0}, {0.0, 1.0}}, x),
               InvalidArgument);
}

TEST(LfilterTest, StreamingBlocksMatchOneShot) {
  const FilterCoeffs f = butter_lowpass(3, 0.3);
  std::vector<double> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.05 * static_cast<double>(i)) +
           0.3 * std::cos(0.6 * static_cast<double>(i));
  }
  const std::vector<double> whole = lfilter(f, x);

  std::vector<double> zi(std::max(f.a.size(), f.b.size()) - 1, 0.0);
  std::vector<double> pieced;
  for (std::size_t start = 0; start < x.size(); start += 64) {
    const std::size_t len = std::min<std::size_t>(64, x.size() - start);
    const std::vector<double> block =
        lfilter(f, std::span<const double>(x.data() + start, len), zi);
    pieced.insert(pieced.end(), block.begin(), block.end());
  }
  ASSERT_EQ(pieced.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_NEAR(pieced[i], whole[i], 1e-10);
  }
}

TEST(LfilterZiTest, SuppressesStepTransient) {
  // Filtering a constant signal with zi scaled by the first sample must
  // produce the steady-state output immediately.
  const FilterCoeffs f = butter_lowpass(4, 0.2);
  std::vector<double> zi = lfilter_zi(f);
  for (auto& v : zi) v *= 5.0;  // input amplitude
  const std::vector<double> x(50, 5.0);
  const std::vector<double> y = lfilter(f, x, zi);
  for (double v : y) {
    EXPECT_NEAR(v, 5.0, 1e-6);
  }
}

TEST(FiltfiltTest, ConstantSignalPassesThrough) {
  const FilterCoeffs f = butter_lowpass(4, 0.25);
  const std::vector<double> x(100, 2.5);
  const std::vector<double> y = filtfilt(f, x);
  ASSERT_EQ(y.size(), x.size());
  for (double v : y) EXPECT_NEAR(v, 2.5, 1e-6);
}

TEST(FiltfiltTest, ZeroPhaseOnPassbandTone) {
  // A tone well inside the passband must come out with the same phase
  // and amplitude (zero-phase filtering), unlike single-pass lfilter.
  const double wn = 0.5;
  const FilterCoeffs f = butter_lowpass(4, wn);
  const std::size_t n = 400;
  const double w_tone = 0.05;  // far below cutoff
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(std::numbers::pi * w_tone * static_cast<double>(i));
  }
  const std::vector<double> y = filtfilt(f, x);
  // Compare away from the edges.
  for (std::size_t i = 50; i < n - 50; ++i) {
    EXPECT_NEAR(y[i], x[i], 5e-3) << "i=" << i;
  }
}

TEST(FiltfiltTest, AttenuatesStopbandTone) {
  const FilterCoeffs f = butter_lowpass(4, 0.1);
  const std::size_t n = 600;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(std::numbers::pi * 0.8 * static_cast<double>(i));
  }
  const std::vector<double> y = filtfilt(f, x);
  double max_mid = 0.0;
  for (std::size_t i = 100; i < n - 100; ++i) {
    max_mid = std::max(max_mid, std::abs(y[i]));
  }
  // Two passes of a 4th-order filter at 8x the cutoff: essentially gone.
  EXPECT_LT(max_mid, 1e-4);
}

TEST(FiltfiltTest, TimeReversalSymmetryInInterior) {
  // filtfilt(x reversed) ~= reverse(filtfilt(x)). Edge padding and the
  // zi scaling are not exactly reversal-symmetric (same as MATLAB /
  // scipy), so compare the interior at edge-effect tolerance.
  const FilterCoeffs f = butter_lowpass(3, 0.3);
  std::vector<double> x(128);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.11 * static_cast<double>(i)) +
           0.5 * std::sin(0.41 * static_cast<double>(i) + 1.0);
  }
  std::vector<double> xr(x.rbegin(), x.rend());
  const std::vector<double> a = filtfilt(f, x);
  std::vector<double> b = filtfilt(f, xr);
  std::reverse(b.begin(), b.end());
  for (std::size_t i = 16; i + 16 < x.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 5e-3) << "i=" << i;
  }
}

TEST(FiltfiltTest, RejectsTooShortInput) {
  // Order-4 lowpass: 5 coefficients, pad = 3*(5-1) = 12; input must be
  // strictly longer than the pad.
  const FilterCoeffs f = butter_lowpass(4, 0.2);
  const std::vector<double> x(12, 1.0);
  EXPECT_THROW((void)filtfilt(f, x), InvalidArgument);
  const std::vector<double> ok(13, 1.0);
  EXPECT_NO_THROW((void)filtfilt(f, ok));
}

// Bitwise pins: the fixed-length DF2T kernels (state length 1..16) and
// the general loop beyond them keep the oracle's per-sample operation
// order. Butterworth lowpass orders 1-10 give state lengths 1-10,
// bandpass orders 1-10 give 2-20, so both sides of the table are hit.
class FilterOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  static FilterCoeffs design() {
    const auto [bandpass, order] = GetParam();
    return bandpass ? butter_bandpass(order, 0.1, 0.6)
                    : butter_lowpass(order, 0.3);
  }

  static std::vector<double> signal(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> dist;
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = dist(rng) + (i >= n / 3 ? 2.0 : 0.0);  // noise plus a step
    }
    return x;
  }

  static void expect_bitwise(const std::vector<double>& got,
                             const std::vector<double>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(std::isfinite(want[i])) << "unstable design, i=" << i;
      EXPECT_EQ(got[i], want[i]) << "i=" << i;
    }
  }
};

TEST_P(FilterOracleTest, LfilterIsBitwiseEqual) {
  const FilterCoeffs f = design();
  for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                              std::size_t{4099}}) {
    const std::vector<double> x = signal(n, n + 3);
    expect_bitwise(lfilter(f, x), oracle::lfilter(f, x));
  }
}

TEST_P(FilterOracleTest, LfilterWithStateIsBitwiseEqual) {
  const FilterCoeffs f = design();
  const std::vector<double> x = signal(2048, 11);
  std::vector<double> zi = lfilter_zi(f);
  for (double& v : zi) v *= x.front();
  std::vector<double> z_oracle = zi;
  const std::vector<double> y = lfilter(f, x, zi);
  const oracle::Normalised nf = oracle::normalise(f);
  std::vector<double> want(x.size());
  oracle::df2t(nf, x.data(), x.size(), want.data(), z_oracle.data());
  expect_bitwise(y, want);
  expect_bitwise(zi, z_oracle);
}

TEST_P(FilterOracleTest, FiltfiltIsBitwiseEqual) {
  const FilterCoeffs f = design();
  const std::size_t pad = 3 * (std::max(f.a.size(), f.b.size()) - 1);
  for (const std::size_t n : {pad + 1, std::size_t{1000},
                              std::size_t{10003}}) {
    const std::vector<double> x = signal(n, n * 7 + 1);
    expect_bitwise(filtfilt(f, x), oracle::filtfilt(f, x));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, FilterOracleTest,
    ::testing::Combine(::testing::Bool(), ::testing::Range(1, 11)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& p) {
      return std::string(std::get<0>(p.param) ? "bandpass" : "lowpass") +
             std::to_string(std::get<1>(p.param));
    });

}  // namespace
}  // namespace dassa::dsp
