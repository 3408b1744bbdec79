// Concurrency tests for the FFT engine: the plan cache is a shared
// read-mostly structure hit simultaneously by every ApplyMT/HAEE
// worker, and each thread owns a thread_local workspace. These tests
// hammer both from a pool and check the numerical results against a
// single-threaded reference; run them under -DDASSA_SANITIZE=thread to
// turn latent races into failures.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <vector>

#include "dassa/common/thread_pool.hpp"
#include "dassa/dsp/fft.hpp"
#include "dassa/dsp/stats.hpp"

namespace dassa::dsp {
namespace {

std::vector<double> make_signal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

TEST(FftThreadsTest, ConcurrentPlanLookupsAgreeWithReference) {
  // Sizes chosen so threads race to build the same plans: pow2, even
  // 5-smooth composites (packed real path on mixed-radix passes), and
  // primes (Bluestein + sub-plans).
  const std::vector<std::size_t> sizes{64, 100, 101, 250, 256, 499, 1000};
  std::vector<std::vector<double>> signals;
  std::vector<std::vector<cplx>> expected;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    signals.push_back(make_signal(sizes[s], 1000 + s));
    expected.push_back(rfft_half(signals.back()));
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRepsPerThread = 25;
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> mismatches{0};
  pool.parallel_for(kThreads * kRepsPerThread,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        const std::size_t s = i % sizes.size();
                        const std::vector<cplx> got = rfft_half(signals[s]);
                        for (std::size_t k = 0; k < got.size(); ++k) {
                          if (std::abs(got[k] - expected[s][k]) > 1e-9) {
                            mismatches.fetch_add(1);
                          }
                        }
                      }
                    });
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(FftThreadsTest, RaceToBuildOnePlanYieldsOneInstance) {
  // A size nobody has requested yet in this process: every thread
  // arrives at a cold cache entry at once and exactly one build must
  // win, with all callers receiving the same immutable plan.
  constexpr std::size_t kColdSize = 7919;  // prime -> Bluestein chain
  constexpr std::size_t kThreads = 8;
  ThreadPool pool(kThreads);
  std::vector<std::shared_ptr<const FftPlan>> plans(kThreads);
  pool.parallel_for(kThreads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        plans[i] = FftPlan::get(kColdSize);
                      }
                    });
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(plans[i].get(), plans[0].get());
  }
  EXPECT_EQ(plans[0]->size(), kColdSize);
}

TEST(FftThreadsTest, RaceToBuildMixedRadixPlanAgreesAcrossThreads) {
  // A cold 5-smooth size (2 * 3^2 * 5^4): every thread races to build
  // the plan, its twiddle tables and its half-size sub-plan, then runs
  // the transform at once on its own workspace. One plan must win, and
  // the passes are deterministic, so every spectrum is bitwise equal.
  constexpr std::size_t kColdSize = 11250;
  constexpr std::size_t kThreads = 8;
  const std::vector<double> x = make_signal(kColdSize, 77);
  ThreadPool pool(kThreads);
  std::vector<std::shared_ptr<const FftPlan>> plans(kThreads);
  std::vector<std::vector<cplx>> spectra(kThreads);
  pool.parallel_for(kThreads,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        plans[i] = FftPlan::get(kColdSize);
                        spectra[i] = rfft_half(x);
                      }
                    });
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(plans[i].get(), plans[0].get());
    ASSERT_EQ(spectra[i].size(), spectra[0].size());
    for (std::size_t k = 0; k < spectra[0].size(); ++k) {
      ASSERT_EQ(spectra[i][k], spectra[0][k]) << "thread " << i << " bin " << k;
    }
  }
}

TEST(FftThreadsTest, RoundTripsStayExactUnderContention) {
  const std::vector<double> x = make_signal(750, 42);  // even 5-smooth
  constexpr std::size_t kThreads = 6;
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> failures{0};
  pool.parallel_for(kThreads * 20,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        const std::vector<double> back =
                            irfft_half(rfft_half(x), x.size());
                        for (std::size_t j = 0; j < x.size(); ++j) {
                          if (std::abs(back[j] - x[j]) > 1e-8) {
                            failures.fetch_add(1);
                          }
                        }
                      }
                    });
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace dassa::dsp
