// FFT unit + property tests: known transforms, round trips, Parseval,
// linearity, naive-DFT oracles over the mixed-radix (5-smooth) and
// Bluestein paths.
#include "dassa/dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>
#include <span>
#include <utility>

#include "dassa/dsp/stats.hpp"

namespace dassa::dsp {
namespace {

constexpr double kTol = 1e-9;

TEST(FftTest, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(FftTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(FftTest, EmptyInputIsNoop) {
  std::vector<cplx> x;
  fft_inplace(x);
  EXPECT_TRUE(x.empty());
  ifft_inplace(x);
  EXPECT_TRUE(x.empty());
}

TEST(FftTest, SingleElement) {
  std::vector<cplx> x{cplx(3.5, -1.25)};
  fft_inplace(x);
  EXPECT_NEAR(x[0].real(), 3.5, kTol);
  EXPECT_NEAR(x[0].imag(), -1.25, kTol);
}

TEST(FftTest, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(8, cplx(0, 0));
  x[0] = cplx(1, 0);
  fft_inplace(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, kTol);
    EXPECT_NEAR(v.imag(), 0.0, kTol);
  }
}

TEST(FftTest, DcGivesImpulseAtZero) {
  std::vector<cplx> x(16, cplx(2.0, 0));
  fft_inplace(x);
  EXPECT_NEAR(x[0].real(), 32.0, kTol);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0, kTol);
  }
}

TEST(FftTest, PureToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  }
  const std::vector<cplx> spec = rfft(x);
  // A real cosine splits between bins +k and -k, each of magnitude n/2.
  EXPECT_NEAR(std::abs(spec[bin]), static_cast<double>(n) / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[n - bin]), static_cast<double>(n) / 2.0, 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin || k == n - bin) continue;
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8) << "bin " << k;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n * 977 + 13);
  std::normal_distribution<double> dist;
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(dist(rng), dist(rng));
  std::vector<cplx> y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-8) << "n=" << n << " i=" << i;
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-8);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n * 31 + 7);
  std::normal_distribution<double> dist;
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(dist(rng), dist(rng));
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  fft_inplace(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-7 * (1.0 + time_energy));
}

// Powers of two, primes (pure Bluestein), composites with a factor
// above 5 (Bluestein), and 5-smooth lengths hitting every radix mix:
// 6 = 2*3, 9 = 3*3, 15 = 3*5, 25 = 5*5, 45 = 3^2*5, 48 = 4^2*3,
// 120 = 4*2*3*5, 375 = 3*5^3, 3750 = 2*3*5^4 and 30000 = 4^2*3*5^4
// (the resampled DAS row).
INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15,
                                           16, 17, 25, 31, 32, 45, 48, 60, 97,
                                           100, 120, 128, 243, 256, 375, 499,
                                           512, 1000, 1024, 3750, 30000));

void expect_linear(std::size_t n) {
  std::mt19937_64 rng(99);
  std::normal_distribution<double> dist;
  std::vector<cplx> a(n);
  std::vector<cplx> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = cplx(dist(rng), dist(rng));
    b[i] = cplx(dist(rng), dist(rng));
  }
  std::vector<cplx> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const std::vector<cplx> fa = fft(a);
  const std::vector<cplx> fb = fft(b);
  const std::vector<cplx> fsum = fft(sum);
  for (std::size_t i = 0; i < n; ++i) {
    const cplx expect = 2.0 * fa[i] + 3.0 * fb[i];
    EXPECT_NEAR(std::abs(fsum[i] - expect), 0.0, 1e-7) << "n=" << n;
  }
}

TEST(FftTest, LinearityOnBluesteinPath) {
  expect_linear(28);  // 4 * 7: Bluestein
  expect_linear(30);  // 2 * 3 * 5: mixed-radix passes
}

/// Direct DFT bin k of x in long double, angles reduced exactly via
/// (j k) mod n: the oracle for the fast paths.
cplx direct_bin(const std::vector<cplx>& x, std::size_t k) {
  const std::size_t n = x.size();
  long double re = 0.0L;
  long double im = 0.0L;
  for (std::size_t j = 0; j < n; ++j) {
    const long double angle = -2.0L * std::numbers::pi_v<long double> *
                              static_cast<long double>((j * k) % n) /
                              static_cast<long double>(n);
    const long double c = std::cos(angle);
    const long double sn = std::sin(angle);
    re += x[j].real() * c - x[j].imag() * sn;
    im += x[j].real() * sn + x[j].imag() * c;
  }
  return {static_cast<double>(re), static_cast<double>(im)};
}

std::vector<cplx> random_complex(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(dist(rng), dist(rng));
  return x;
}

// Error bound for unit-variance complex input of length n: the bins
// have RMS sqrt(2n), and a stable FFT's error grows like
// eps * log2(n) * RMS. 2e-15 * sqrt(n) * (1 + log2 n) is about 5x the
// largest error measured over these lengths (0.18 of the bound, at the
// Bluestein prime 23; the 5-smooth lengths stay under 0.09).
double dft_tolerance(std::size_t n) {
  const double dn = static_cast<double>(n);
  return 2e-15 * std::sqrt(dn) * (1.0 + std::log2(dn));
}

class FftNaiveDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftNaiveDft, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_complex(n, n * 13 + 5);
  const std::vector<cplx> fast = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_LE(std::abs(fast[k] - direct_bin(x, k)), dft_tolerance(n))
        << "n=" << n << " bin " << k;
  }
}

// 5-smooth lengths (each radix alone and mixed, powers of two
// included), primes, and composites with a prime factor above 5.
INSTANTIATE_TEST_SUITE_P(
    Lengths, FftNaiveDft,
    ::testing::Values(2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 23, 25, 27,
                      30, 32, 45, 48, 64, 75, 81, 97, 98, 100, 120, 125,
                      128, 225, 240, 243, 256, 375, 499, 500, 625, 720, 997,
                      1000, 1024));

// The DAS row lengths: 30000 is the complex transform behind a
// 60000-sample real row. 64 bins (DC, Nyquist, the last bin and a
// spread in between) against a direct O(n) sum each.
class FftLongRow : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftLongRow, SpotBinsMatchDirectSum) {
  const std::size_t n = GetParam();
  const std::vector<cplx> x = random_complex(n, n + 1);
  const std::vector<cplx> fast = fft(x);
  std::vector<std::size_t> bins{0, 1, n / 2, n - 1};
  for (std::size_t i = 0; bins.size() < 64; ++i) {
    bins.push_back((i * 7919 + 3) % n);
  }
  for (const std::size_t k : bins) {
    EXPECT_LE(std::abs(fast[k] - direct_bin(x, k)), dft_tolerance(n))
        << "n=" << n << " bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(DasRows, FftLongRow,
                         ::testing::Values(30000, 60000));

TEST(FftTest, RfftOfRealSignalIsConjugateSymmetric) {
  std::mt19937_64 rng(17);
  std::normal_distribution<double> dist;
  std::vector<double> x(40);
  for (auto& v : x) v = dist(rng);
  const std::vector<cplx> spec = rfft(x);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(spec[k] - std::conj(spec[x.size() - k])), 0.0, 1e-8);
  }
}

TEST(FftTest, IrfftRealRoundTrip) {
  std::mt19937_64 rng(23);
  std::normal_distribution<double> dist;
  std::vector<double> x(50);
  for (auto& v : x) v = dist(rng);
  const std::vector<double> back = irfft_real(rfft(x));
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-8);
  }
}

/// Reference O(n^2) DFT of a real signal, first n/2 + 1 bins.
std::vector<cplx> naive_half_dft(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n / 2 + 1, cplx(0, 0));
  for (std::size_t k = 0; k < out.size(); ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * j) /
                           static_cast<double>(n);
      out[k] += x[j] * cplx(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

class RfftHalf : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftHalf, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n * 131 + 3);
  std::normal_distribution<double> dist;
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  const std::vector<cplx> fast = rfft_half(x);
  const std::vector<cplx> naive = naive_half_dft(x);
  ASSERT_EQ(fast.size(), n / 2 + 1);
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(std::abs(fast[k] - naive[k]), 0.0,
                1e-8 * (1.0 + static_cast<double>(n)))
        << "n=" << n << " bin " << k;
  }
}

TEST_P(RfftHalf, IrfftHalfRoundTrips) {
  const std::size_t n = GetParam();
  std::mt19937_64 rng(n * 7 + 11);
  std::normal_distribution<double> dist;
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  const std::vector<double> back = irfft_half(rfft_half(x), n);
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-8) << "n=" << n << " i=" << i;
  }
}

// n = 1 and 2 (degenerate), even packed path, odd fallback, primes,
// powers of two, and even-but-not-pow2 composites.
INSTANTIATE_TEST_SUITE_P(Sizes, RfftHalf,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 17, 23,
                                           30, 50, 64, 100, 101, 128, 250,
                                           256));

TEST(FftTest, RfftMatchesRfftHalfPlusMirror) {
  std::mt19937_64 rng(41);
  std::normal_distribution<double> dist;
  std::vector<double> x(96);
  for (auto& v : x) v = dist(rng);
  const std::vector<cplx> full = rfft(x);
  const std::vector<cplx> half = rfft_half(x);
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(std::abs(full[k] - half[k]), 0.0, 1e-10);
  }
  for (std::size_t k = half.size(); k < x.size(); ++k) {
    EXPECT_NEAR(std::abs(full[k] - std::conj(half[x.size() - k])), 0.0,
                1e-10);
  }
}

TEST(FftTest, RfftHalfBatchMatchesPerRow) {
  const std::size_t rows = 5;
  const std::size_t cols = 60;
  std::mt19937_64 rng(59);
  std::normal_distribution<double> dist;
  std::vector<double> data(rows * cols);
  for (auto& v : data) v = dist(rng);
  const std::vector<std::vector<cplx>> batch =
      rfft_half_batch(data, rows, cols);
  ASSERT_EQ(batch.size(), rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<cplx> row = rfft_half(
        std::span<const double>(data.data() + r * cols, cols));
    ASSERT_EQ(batch[r].size(), row.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_NEAR(std::abs(batch[r][k] - row[k]), 0.0, 1e-10);
    }
  }
}

TEST(FftTest, SteadyStateTransformsAllocateNothing) {
  std::mt19937_64 rng(73);
  std::normal_distribution<double> dist;
  // 1000: packed half of 500 on the mixed-radix passes (slots 1 and 2);
  // 1994: packed half of prime 997 on Bluestein, the heaviest scratch
  // use (slots 0, 1 and 2).
  std::vector<std::vector<double>> signals;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{1994}}) {
    std::vector<double> x(n);
    for (auto& v : x) v = dist(rng);
    // Warm up: builds the plan chain and grows this thread's workspace.
    (void)rfft_half(x);
    (void)irfft_half(rfft_half(x), x.size());
    signals.push_back(std::move(x));
  }
  const std::uint64_t before = dsp_stats().fft_bytes_allocated;
  for (std::size_t rep = 0; rep < 8; ++rep) {
    for (const std::vector<double>& x : signals) {
      const std::vector<double> back = irfft_half(rfft_half(x), x.size());
      EXPECT_NEAR(back[rep], x[rep], 1e-8);
    }
  }
  EXPECT_EQ(dsp_stats().fft_bytes_allocated, before)
      << "steady-state transforms must not grow plans or workspace";
}

TEST(FftTest, PlanCacheHitsOnRepeatedLookups) {
  const DspStats before = dsp_stats();
  const auto plan = FftPlan::get(4096);
  const auto again = FftPlan::get(4096);
  EXPECT_EQ(plan.get(), again.get());
  const DspStats after = dsp_stats();
  EXPECT_GE(after.fft_plan_hits, before.fft_plan_hits + 1);
}

}  // namespace
}  // namespace dassa::dsp
