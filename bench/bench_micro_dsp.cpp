// Google-benchmark micro-benchmarks for the DasLib kernels that
// dominate the pipelines' compute stages (supporting data for Figs.
// 8/9/11; also covers the FFT design decision in DESIGN.md: mixed-radix
// vs Bluestein path).
#include <benchmark/benchmark.h>

#include <random>

#include "dassa/dsp/daslib.hpp"

namespace {

using namespace dassa;

std::vector<double> random_signal(std::size_t n, std::uint64_t seed = 1) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

void BM_FftPow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_fft(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FftBluestein(benchmark::State& state) {
  // Non-power-of-two 5-smooth sizes: they ran the chirp-z path when the
  // gate was set and now take the mixed-radix passes; the name stays so
  // the recorded speedups remain comparable.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_fft(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftBluestein)->Arg(250)->Arg(1000)->Arg(3750)->Arg(15000);

void BM_FftPrime(benchmark::State& state) {
  // Prime sizes: the remaining Bluestein path, whose power-of-two
  // sub-transforms run the same passes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_fft(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftPrime)->Arg(4999)->Arg(15013);

void BM_RfftHalf(benchmark::State& state) {
  // Half-spectrum real transform: the packed half-size path for even
  // lengths, emitting only the n/2 + 1 non-redundant bins.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::rfft_half(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RfftHalf)->Arg(1024)->Arg(4096)->Arg(1000)->Arg(3750);

void BM_RfftHalfBatch(benchmark::State& state) {
  // Row-batched transform sharing one plan and workspace, as the
  // interferometry pipelines do across channels.
  const std::size_t rows = 32;
  const auto cols = static_cast<std::size_t>(state.range(0));
  const std::vector<double> data = random_signal(rows * cols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::rfft_half_batch(data, rows, cols));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_RfftHalfBatch)->Arg(1024)->Arg(3750);

void BM_Detrend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_detrend(x));
  }
}
BENCHMARK(BM_Detrend)->Arg(3000)->Arg(30000);

void BM_ButterDesign(benchmark::State& state) {
  const auto order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_butter_bandpass(order, 0.01, 0.4));
  }
}
BENCHMARK(BM_ButterDesign)->Arg(2)->Arg(4)->Arg(8);

void BM_Filtfilt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  const dsp::FilterCoeffs f = daslib::Das_butter_bandpass(3, 0.02, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_filtfilt(f, x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Filtfilt)->Arg(3000)->Arg(30000);

void BM_Resample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_resample(x, 1, 4));
  }
}
BENCHMARK(BM_Resample)->Arg(3000)->Arg(30000);

void BM_Abscorr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> a = random_signal(n, 1);
  const std::vector<double> b = random_signal(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(daslib::Das_abscorr(a, b));
  }
}
BENCHMARK(BM_Abscorr)->Arg(51)->Arg(501);

void BM_XcorrFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> a = random_signal(n, 3);
  const std::vector<double> b = random_signal(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::xcorr_full(a, b));
  }
}
BENCHMARK(BM_XcorrFull)->Arg(1024)->Arg(8192);

void BM_LocalSimilarityWindowPair(benchmark::State& state) {
  // The inner kernel of paper Algorithm 2: one window against (2L+1)
  // lagged windows on each of two neighbours.
  const std::size_t m = 25;
  const std::size_t l = 10;
  const std::vector<double> a = random_signal(2 * (m + l) + 1, 9);
  const std::vector<double> b = random_signal(2 * (m + l) + 1, 10);
  const std::span<const double> w(a.data() + l, 2 * m + 1);
  for (auto _ : state) {
    double best = 0.0;
    for (std::size_t lag = 0; lag <= 2 * l; ++lag) {
      best = std::max(best, daslib::Das_abscorr(
                                w, std::span<const double>(
                                       b.data() + lag, 2 * m + 1)));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_LocalSimilarityWindowPair);

}  // namespace

BENCHMARK_MAIN();
