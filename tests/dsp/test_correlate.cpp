#include "dassa/dsp/correlate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>

#include "dassa/common/error.hpp"

namespace dassa::dsp {
namespace {

TEST(AbscorrTest, IdenticalVectorsGiveOne) {
  const std::vector<double> a{1.0, -2.0, 3.0, 0.5};
  EXPECT_NEAR(abscorr(a, a), 1.0, 1e-12);
}

TEST(AbscorrTest, NegatedVectorGivesOne) {
  const std::vector<double> a{1.0, -2.0, 3.0};
  std::vector<double> b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) b[i] = -a[i];
  EXPECT_NEAR(abscorr(a, b), 1.0, 1e-12);  // absolute correlation
}

TEST(AbscorrTest, OrthogonalVectorsGiveZero) {
  const std::vector<double> a{1.0, 0.0, -1.0, 0.0};
  const std::vector<double> b{0.0, 1.0, 0.0, -1.0};
  EXPECT_NEAR(abscorr(a, b), 0.0, 1e-12);
}

TEST(AbscorrTest, ScaleInvariant) {
  std::mt19937_64 rng(3);
  std::normal_distribution<double> dist;
  std::vector<double> a(50);
  std::vector<double> b(50);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = dist(rng);
    b[i] = dist(rng);
  }
  std::vector<double> a_scaled(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) a_scaled[i] = 42.0 * a[i];
  EXPECT_NEAR(abscorr(a, b), abscorr(a_scaled, b), 1e-12);
}

TEST(AbscorrTest, ZeroNormGivesZero) {
  const std::vector<double> a{0.0, 0.0, 0.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_EQ(abscorr(a, b), 0.0);
}

TEST(AbscorrTest, BoundedByOne) {
  std::mt19937_64 rng(9);
  std::normal_distribution<double> dist;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(20);
    std::vector<double> b(20);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = dist(rng);
      b[i] = dist(rng);
    }
    const double c = abscorr(a, b);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-12);
  }
}

TEST(AbscorrTest, RejectsLengthMismatch) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)abscorr(a, b), InvalidArgument);
}

TEST(AbscorrComplexTest, MatchesSelfAndPhaseRotation) {
  std::vector<cplx> a{{1, 2}, {3, -1}, {0, 4}};
  EXPECT_NEAR(abscorr(std::span<const cplx>(a), std::span<const cplx>(a)),
              1.0, 1e-12);
  // A global phase rotation must not change |cos(theta)|.
  const cplx phase = std::polar(1.0, 1.234);
  std::vector<cplx> b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) b[i] = a[i] * phase;
  EXPECT_NEAR(abscorr(std::span<const cplx>(a), std::span<const cplx>(b)),
              1.0, 1e-12);
}

TEST(XcorrTest, MatchesNaiveCorrelation) {
  std::mt19937_64 rng(21);
  std::normal_distribution<double> dist;
  std::vector<double> a(17);
  std::vector<double> b(11);
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);

  const std::vector<double> fast = xcorr_full(a, b);
  ASSERT_EQ(fast.size(), a.size() + b.size() - 1);
  // naive[k] = sum_j a[j] * b[j - (k - (nb-1))]
  for (std::size_t k = 0; k < fast.size(); ++k) {
    const std::ptrdiff_t lag =
        static_cast<std::ptrdiff_t>(k) -
        static_cast<std::ptrdiff_t>(b.size() - 1);
    double expect = 0.0;
    for (std::size_t j = 0; j < a.size(); ++j) {
      const std::ptrdiff_t bj = static_cast<std::ptrdiff_t>(j) - lag;
      if (bj >= 0 && bj < static_cast<std::ptrdiff_t>(b.size())) {
        expect += a[j] * b[static_cast<std::size_t>(bj)];
      }
    }
    EXPECT_NEAR(fast[k], expect, 1e-9) << "k=" << k;
  }
}

/// Direct time-domain reference: full cross-correlation laid out the
/// same way as xcorr_full (index k corresponds to lag k - (nb - 1)).
std::vector<double> naive_xcorr_full(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::ptrdiff_t lag = static_cast<std::ptrdiff_t>(k) -
                               static_cast<std::ptrdiff_t>(b.size() - 1);
    for (std::size_t j = 0; j < a.size(); ++j) {
      const std::ptrdiff_t bj = static_cast<std::ptrdiff_t>(j) - lag;
      if (bj >= 0 && bj < static_cast<std::ptrdiff_t>(b.size())) {
        out[k] += a[j] * b[static_cast<std::size_t>(bj)];
      }
    }
  }
  return out;
}

TEST(XcorrTest, LengthOneInputs) {
  // 1 x 1: a single product.
  const std::vector<double> r11 = xcorr_full(std::vector<double>{3.0},
                                             std::vector<double>{-2.0});
  ASSERT_EQ(r11.size(), 1u);
  EXPECT_NEAR(r11[0], -6.0, 1e-12);

  // 1 x n and n x 1: scaled (reversed) copies of the longer input.
  const std::vector<double> a{1.0, -2.0, 4.0, 0.5};
  const std::vector<double> one{2.0};
  const std::vector<double> r1n = xcorr_full(one, a);
  const std::vector<double> rn1 = xcorr_full(a, one);
  const std::vector<double> e1n = naive_xcorr_full(one, a);
  const std::vector<double> en1 = naive_xcorr_full(a, one);
  ASSERT_EQ(r1n.size(), e1n.size());
  ASSERT_EQ(rn1.size(), en1.size());
  for (std::size_t k = 0; k < r1n.size(); ++k) {
    EXPECT_NEAR(r1n[k], e1n[k], 1e-10) << "k=" << k;
  }
  for (std::size_t k = 0; k < rn1.size(); ++k) {
    EXPECT_NEAR(rn1[k], en1[k], 1e-10) << "k=" << k;
  }
}

class XcorrShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(XcorrShapes, MatchesNaiveForUnequalAndNonPow2Lengths) {
  const auto [na, nb] = GetParam();
  std::mt19937_64 rng(na * 1009 + nb);
  std::normal_distribution<double> dist;
  std::vector<double> a(na);
  std::vector<double> b(nb);
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  const std::vector<double> fast = xcorr_full(a, b);
  const std::vector<double> naive = naive_xcorr_full(a, b);
  ASSERT_EQ(fast.size(), na + nb - 1);
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k], naive[k], 1e-9) << "na=" << na << " nb=" << nb
                                         << " k=" << k;
  }
}

// Very unequal lengths, and totals (na + nb - 1) that are prime or
// otherwise far from a power of two, exercising the padded-size
// selection inside xcorr_full.
INSTANTIATE_TEST_SUITE_P(
    Shapes, XcorrShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 9},
                      std::pair<std::size_t, std::size_t>{3, 64},
                      std::pair<std::size_t, std::size_t>{13, 7},
                      std::pair<std::size_t, std::size_t>{31, 31},
                      std::pair<std::size_t, std::size_t>{100, 3},
                      std::pair<std::size_t, std::size_t>{127, 129},
                      std::pair<std::size_t, std::size_t>{60, 60},
                      std::pair<std::size_t, std::size_t>{240, 7},
                      std::pair<std::size_t, std::size_t>{3750, 3750}));

TEST(XcorrTest, AutocorrelationPeaksAtZeroLag) {
  std::mt19937_64 rng(2);
  std::normal_distribution<double> dist;
  std::vector<double> a(64);
  for (auto& v : a) v = dist(rng);
  const std::vector<double> r = xcorr_full(a, a);
  const std::size_t zero_lag = a.size() - 1;
  for (std::size_t k = 0; k < r.size(); ++k) {
    EXPECT_LE(std::abs(r[k]), r[zero_lag] + 1e-9);
  }
}

TEST(XcorrSpectraTest, CircularCorrelationIdentity) {
  // xcorr_spectra(F(x), F(x)) at index 0 equals sum(x^2).
  std::mt19937_64 rng(4);
  std::normal_distribution<double> dist;
  std::vector<double> x(32);
  double energy = 0.0;
  for (auto& v : x) {
    v = dist(rng);
    energy += v * v;
  }
  const std::vector<cplx> fx = rfft(x);
  const std::vector<double> r = xcorr_spectra(fx, fx);
  EXPECT_NEAR(r[0], energy, 1e-8);
}

// xcorr_spectra runs the inverse transform on its product buffer; the
// inverse's own scratch (workspace slots 0-2) must not be that buffer.
// Checked against the direct circular correlation
// r[k] = sum_j a[(j + k) mod n] b[j] on mixed-radix and Bluestein
// lengths.
class XcorrSpectraLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XcorrSpectraLengths, MatchesDirectCircularCorrelation) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n * 17 + 1);
  std::normal_distribution<double> dist;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = dist(rng);
  for (auto& v : b) v = dist(rng);
  const std::vector<double> r = xcorr_spectra(rfft(a), rfft(b));
  ASSERT_EQ(r.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    double direct = 0.0;
    for (std::size_t j = 0; j < n; ++j) direct += a[(j + k) % n] * b[j];
    EXPECT_NEAR(r[k], direct, 1e-9) << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, XcorrSpectraLengths,
                         ::testing::Values(60, 97, 240, 1024, 3750));

TEST(PearsonTest, KnownValues) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> c(a.rbegin(), a.rend());
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

}  // namespace
}  // namespace dassa::dsp
