// Telemetry stress: the background sampler ticking at full speed while
// worker threads hammer the counter registry, the metrics histograms,
// and the gauge registry. Run under TSan by scripts/check.sh; the
// assertions here are about invariants that must survive the races
// (contiguous seq, monotone counters within the timeline).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"

namespace dassa::telemetry {
namespace {

TEST(TelemetryStress, SamplerRacesCountersHistogramsAndGauges) {
  SamplerConfig cfg;
  cfg.period = std::chrono::milliseconds{1};
  TelemetrySampler sampler(cfg);
  sampler.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t, &stop] {
      const std::string hist_name =
          "telemetry_stress.worker" + std::to_string(t);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        global_counters().add(counters::kTelemetryRowsProcessed, 1);
        global_metrics().histogram(hist_name).record_ns(100 + i % 1000);
        if (i % 64 == 0) {
          // Re-registering an existing gauge is the documented way for
          // re-created singletons to stay current; race it on purpose.
          global_metrics().register_gauge(
              "telemetry_stress.gauge" + std::to_string(t),
              [t] { return static_cast<double>(t); });
        }
        if (i % 128 == 0) {
          // Cross-rank style merge racing live recording.
          global_metrics().merge(
              {{hist_name, HistogramSnapshot{}}});
        }
        ++i;
      }
    });
  }

  // Extra manual ticks race the background loop's ticks.
  for (int i = 0; i < 50; ++i) {
    sampler.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  sampler.stop();

  const std::vector<Sample> timeline = sampler.timeline();
  ASSERT_GE(timeline.size(), 50u);
  std::uint64_t prev_rows = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].seq, i);
    const auto it =
        timeline[i].counters.find(counters::kTelemetryRowsProcessed);
    if (it != timeline[i].counters.end()) {
      EXPECT_GE(it->second, prev_rows);
      prev_rows = it->second;
    }
  }
}

}  // namespace
}  // namespace dassa::telemetry
