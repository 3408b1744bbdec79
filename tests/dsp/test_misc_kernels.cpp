// Tests for interp1, the Kaiser window and the median.
#include <gtest/gtest.h>

#include <cmath>

#include "dassa/common/error.hpp"
#include "dassa/dsp/interp.hpp"
#include "dassa/dsp/median.hpp"
#include "dassa/dsp/window.hpp"

namespace dassa::dsp {
namespace {

// ---------- interp1 ------------------------------------------------------

TEST(Interp1Test, ExactAtSourcePoints) {
  const std::vector<double> x0{0.0, 1.0, 2.0, 4.0};
  const std::vector<double> y0{1.0, 3.0, 2.0, -1.0};
  const std::vector<double> y = interp1(x0, y0, x0);
  for (std::size_t i = 0; i < y0.size(); ++i) EXPECT_NEAR(y[i], y0[i], 1e-12);
}

TEST(Interp1Test, MidpointsAreAverages) {
  const std::vector<double> x0{0.0, 2.0, 4.0};
  const std::vector<double> y0{0.0, 4.0, 0.0};
  const std::vector<double> q{1.0, 3.0};
  const std::vector<double> y = interp1(x0, y0, q);
  EXPECT_NEAR(y[0], 2.0, 1e-12);
  EXPECT_NEAR(y[1], 2.0, 1e-12);
}

TEST(Interp1Test, ClampsOutsideRange) {
  const std::vector<double> x0{1.0, 2.0};
  const std::vector<double> y0{10.0, 20.0};
  const std::vector<double> q{-5.0, 0.99, 2.01, 100.0};
  const std::vector<double> y = interp1(x0, y0, q);
  EXPECT_EQ(y[0], 10.0);
  EXPECT_EQ(y[1], 10.0);
  EXPECT_EQ(y[2], 20.0);
  EXPECT_EQ(y[3], 20.0);
}

TEST(Interp1Test, RejectsBadInput) {
  const std::vector<double> inc{0.0, 1.0};
  const std::vector<double> y2{1.0, 2.0};
  const std::vector<double> q{0.5};
  EXPECT_THROW((void)interp1(std::vector<double>{1.0, 1.0}, y2, q),
               InvalidArgument);
  EXPECT_THROW((void)interp1(std::vector<double>{2.0, 1.0}, y2, q),
               InvalidArgument);
  EXPECT_THROW((void)interp1(inc, std::vector<double>{1.0}, q),
               InvalidArgument);
}

// ---------- windows ------------------------------------------------------

TEST(WindowTest, AllWindowsAreSymmetricAndBounded) {
  for (std::size_t n : {2u, 5u, 16u, 33u}) {
    const std::vector<double> w = kaiser_window(n, 6.0);
    ASSERT_EQ(w.size(), n);
    for (std::size_t i = 0; i < n / 2; ++i) {
      EXPECT_NEAR(w[i], w[n - 1 - i], 1e-12);
    }
    for (double v : w) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(WindowTest, BesselI0KnownValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-14);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658777520084, 1e-12);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871823604442, 1e-9);
  EXPECT_THROW((void)bessel_i0(std::nan("")), InvalidArgument);
  EXPECT_THROW((void)kaiser_window(8, -1.0), InvalidArgument);
}

// ---------- median -------------------------------------------------------

TEST(MedianTest, KnownValues) {
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), InvalidArgument);
}

}  // namespace
}  // namespace dassa::dsp
