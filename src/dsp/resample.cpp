#include "dassa/dsp/resample.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <utility>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/dsp/window.hpp"

namespace dassa::dsp {

namespace {

/// Kaiser-windowed sinc designs depend only on (up, down); per-channel
/// resampling in the pipelines reuses one design ~10^4 times, so
/// finished filters are shared through a read-mostly cache.
using FilterKey = std::pair<std::size_t, std::size_t>;

/// Named struct (not function-local statics) so the map carries its
/// DASSA_GUARDED_BY annotation.
struct FilterCache {
  SharedMutex mu;
  std::map<FilterKey, std::shared_ptr<const std::vector<double>>> filters
      DASSA_GUARDED_BY(mu);
};

FilterCache& filter_cache() {
  static FilterCache cache;
  return cache;
}

std::shared_ptr<const std::vector<double>> cached_resample_filter(
    std::size_t up, std::size_t down) {
  FilterCache& cache = filter_cache();
  const FilterKey key{up, down};
  static Counter& hits =
      global_counters().counter(counters::kDspResampleDesignHits);
  static Counter& misses =
      global_counters().counter(counters::kDspResampleDesignMisses);
  {
    ReaderLock lock(cache.mu);
    auto it = cache.filters.find(key);
    if (it != cache.filters.end()) {
      hits.add();
      return it->second;
    }
  }
  auto built = std::make_shared<const std::vector<double>>(
      resample_filter(up, down));
  WriterLock lock(cache.mu);
  auto [it, inserted] = cache.filters.emplace(key, std::move(built));
  if (inserted) {
    misses.add();
  } else {
    hits.add();
  }
  return it->second;
}

}  // namespace

std::vector<double> resample_filter(std::size_t up, std::size_t down) {
  DASSA_CHECK(up >= 1 && down >= 1, "resample factors must be positive");
  // Cutoff at the tighter of the two Nyquist limits, on the upsampled
  // grid where Nyquist corresponds to normalised frequency 1.
  const double cutoff =
      1.0 / static_cast<double>(std::max(up, down));  // (0, 1]
  const std::size_t half = 10 * std::max(up, down);
  const std::size_t n = 2 * half + 1;
  const std::vector<double> w = kaiser_window(n, 5.0);
  std::vector<double> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t =
        static_cast<double>(i) - static_cast<double>(half);  // centred
    const double arg = std::numbers::pi * cutoff * t;
    const double sinc =
        (t == 0.0) ? 1.0 : std::sin(arg) / (std::numbers::pi * t);
    h[i] = ((t == 0.0) ? cutoff : sinc) * w[i];
  }
  // Normalise DC gain to `up` so zero-stuffed upsampling preserves
  // amplitude.
  double dc = 0.0;
  for (double v : h) dc += v;
  const double gain = static_cast<double>(up) / dc;
  for (double& v : h) v *= gain;
  return h;
}

std::vector<double> resample(std::span<const double> x, std::size_t up,
                             std::size_t down) {
  DASSA_TRACE_SPAN("dsp", "dsp.resample");
  DASSA_CHECK(up >= 1 && down >= 1, "resample factors must be positive");
  if (x.empty()) return {};
  if (up == down) return {x.begin(), x.end()};

  const std::shared_ptr<const std::vector<double>> h_ptr =
      cached_resample_filter(up, down);
  const std::vector<double>& h = *h_ptr;
  const std::size_t half = (h.size() - 1) / 2;  // group delay on the
                                                // upsampled grid
  const std::size_t n = x.size();
  const std::size_t out_len =
      (n * up + down - 1) / down;  // ceil(n * up / down)

  // y[m] = sum_k h[k] * xup[pos - k] with xup[j] = x[j/up] when
  // j % up == 0: output sample m sits at position pos = m*down + half on
  // the upsampled grid, where the filter is centred (delay-compensated).
  // Only taps hitting non-zero stuffed samples are visited, in
  // ascending j.
  const auto edge_output = [&](std::size_t m) {
    const std::size_t pos = m * down + half;
    const std::size_t k_min = (pos >= h.size() - 1) ? pos - (h.size() - 1) : 0;
    // First j >= k_min with j % up == 0:
    std::size_t j = ((k_min + up - 1) / up) * up;
    double acc = 0.0;
    for (; j <= pos; j += up) {
      const std::size_t src = j / up;
      if (src >= n) break;
      acc += h[pos - j] * x[src];
    }
    return acc;
  };

  std::vector<double> y(out_len, 0.0);
  std::size_t m = 0;
  if (up == 1 && n > half) {
    // Interior outputs [lo, hi) have every tap inside x: pos >= taps-1
    // and pos <= n-1. They skip the bounds checks and run four at a
    // time, each with its own accumulator summing its taps in the same
    // ascending order as edge_output, so the result is bitwise equal.
    const std::size_t taps = h.size();
    const std::size_t lo = (half + down - 1) / down;
    const std::size_t hi = (n - 1 - half) / down + 1;
    for (; m < lo && m < out_len; ++m) y[m] = edge_output(m);
    for (; m + 4 <= hi; m += 4) {
      const double* x0 = x.data() + (m * down + half - (taps - 1));
      const double* x1 = x0 + down;
      const double* x2 = x1 + down;
      const double* x3 = x2 + down;
      double a0 = 0.0;
      double a1 = 0.0;
      double a2 = 0.0;
      double a3 = 0.0;
      for (std::size_t t = 0; t < taps; ++t) {
        const double hk = h[taps - 1 - t];
        a0 += hk * x0[t];
        a1 += hk * x1[t];
        a2 += hk * x2[t];
        a3 += hk * x3[t];
      }
      y[m] = a0;
      y[m + 1] = a1;
      y[m + 2] = a2;
      y[m + 3] = a3;
    }
  }
  for (; m < out_len; ++m) y[m] = edge_output(m);
  return y;
}

std::vector<double> decimate(std::span<const double> x, std::size_t factor) {
  DASSA_CHECK(factor >= 1, "decimation factor must be positive");
  return resample(x, 1, factor);
}

}  // namespace dassa::dsp
