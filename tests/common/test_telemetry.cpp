// Telemetry tests: deterministic sampling via tick(), the JSONL
// schema round-trip through the in-tree parser, the validator's teeth,
// gauge registration, histogram merging, quantile interpolation, and
// the health report's stall detector.
#include "dassa/common/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"

namespace dassa::telemetry {
namespace {

// ---- deterministic sampling ------------------------------------------

TEST(TelemetrySampler, ManualTicksAreDeterministic) {
  global_counters().reset();
  TelemetrySampler sampler;
  for (int i = 0; i < 5; ++i) sampler.tick();

  const std::vector<Sample> timeline = sampler.timeline();
  ASSERT_EQ(timeline.size(), 5u);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const Sample& s = timeline[i];
    EXPECT_EQ(s.seq, i);
    // tick() charges the sample counter before snapshotting, so every
    // sample already includes itself.
    ASSERT_TRUE(s.counters.count(counters::kTelemetrySamples));
    EXPECT_EQ(s.counters.at(counters::kTelemetrySamples), s.seq + 1);
    if (i > 0) {
      EXPECT_GE(s.wall_ns, timeline[i - 1].wall_ns);
    }
  }
  EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(TelemetrySampler, SamplesSeeCounterProgress) {
  global_counters().reset();
  TelemetrySampler sampler;
  sampler.tick();
  global_counters().add(counters::kIoReadBytes, 4096);
  sampler.tick();

  const std::vector<Sample> timeline = sampler.timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].counters.count(counters::kIoReadBytes), 0u);
  EXPECT_EQ(timeline[1].counters.at(counters::kIoReadBytes), 4096u);
}

TEST(TelemetrySampler, TimelineCapDropsExtraTicks) {
  SamplerConfig cfg;
  cfg.max_samples = 2;
  TelemetrySampler sampler(cfg);
  for (int i = 0; i < 5; ++i) sampler.tick();
  EXPECT_EQ(sampler.timeline().size(), 2u);
  EXPECT_EQ(sampler.dropped(), 3u);
}

TEST(TelemetrySampler, RejectsNonPositivePeriod) {
  SamplerConfig cfg;
  cfg.period = std::chrono::milliseconds{0};
  EXPECT_THROW(TelemetrySampler{cfg}, Error);
}

TEST(TelemetrySampler, BackgroundThreadSamplesAndStops) {
  SamplerConfig cfg;
  cfg.period = std::chrono::milliseconds{1};
  TelemetrySampler sampler(cfg);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sampler.timeline().size() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  const std::vector<Sample> timeline = sampler.timeline();
  ASSERT_GE(timeline.size(), 3u);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].seq, i);
  }
  // stop() is idempotent and the timeline is frozen afterwards.
  sampler.stop();
  EXPECT_EQ(sampler.timeline().size(), timeline.size());
}

TEST(TelemetrySampler, HistogramPercentilesFoldIntoGauges) {
  global_metrics().histogram("telemetry_test.fold").record_ns(1 << 10);
  TelemetrySampler sampler;
  sampler.tick();
  const Sample s = sampler.timeline().back();
  EXPECT_TRUE(s.gauges.count("hist.telemetry_test.fold.count"));
  EXPECT_TRUE(s.gauges.count("hist.telemetry_test.fold.p50_ns"));
  EXPECT_TRUE(s.gauges.count("hist.telemetry_test.fold.p95_ns"));
  EXPECT_TRUE(s.gauges.count("hist.telemetry_test.fold.p99_ns"));
  EXPECT_GE(s.gauges.at("hist.telemetry_test.fold.count"), 1.0);
}

// ---- gauges and resources --------------------------------------------

TEST(TelemetryGauges, BuiltinsAndRegistrationAndReplacement) {
  MetricsRegistry& reg = global_metrics();
  const std::map<std::string, double> before = reg.read_gauges();
  EXPECT_TRUE(before.count("trace.open_spans"));
  EXPECT_TRUE(before.count("trace.dropped_spans"));
  EXPECT_TRUE(before.count("log.records"));

  reg.register_gauge("telemetry_test.gauge", [] { return 41.0; });
  reg.register_gauge("telemetry_test.gauge", [] { return 42.0; });  // replaces
  EXPECT_EQ(reg.read_gauges().at("telemetry_test.gauge"), 42.0);

  EXPECT_THROW(reg.register_gauge("", [] { return 0.0; }), Error);
  EXPECT_THROW(reg.register_gauge("telemetry_test.null", GaugeFn{}), Error);
}

TEST(TelemetryResources, ReportsProcessUsage) {
  const ResourceUsage res = sample_resources();
#if defined(__linux__)
  EXPECT_GT(res.rss_bytes, 0u);
  EXPECT_GT(res.peak_rss_bytes, 0u);
  EXPECT_GE(res.peak_rss_bytes, res.rss_bytes / 2);  // same order
#endif
}

// ---- metrics: merge + quantile interpolation -------------------------

TEST(TelemetryMetrics, QuantileInterpolatesWithinBucket) {
  LatencyHistogram h;
  // 100 samples spanning bucket 4 ([16, 32) ns): half at each end.
  for (int i = 0; i < 50; ++i) h.record_ns(16);
  for (int i = 0; i < 50; ++i) h.record_ns(31);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile_ns(0.5), 24.0);   // 16 + 16 * 0.5
  EXPECT_DOUBLE_EQ(s.quantile_ns(0.25), 20.0);  // 16 + 16 * 0.25
  EXPECT_DOUBLE_EQ(s.quantile_ns(1.0), 31.0);   // clamped to the max seen
  EXPECT_EQ(HistogramSnapshot{}.quantile_ns(0.5), 0.0);
  EXPECT_THROW((void)s.quantile_ns(1.5), Error);
}

TEST(TelemetryMetrics, QuantilesAreBoundedByObservedRange) {
  // One 2.19 s sample: pow2 interpolation alone would report ~3.2 s
  // at p50 and ~4.3 s at p99; the observed range pins both to it.
  LatencyHistogram h;
  h.record_ns(2'190'000'000);
  const HistogramSnapshot one = h.snapshot();
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.quantile_ns(0.50), 2.19e9);
  EXPECT_DOUBLE_EQ(one.quantile_ns(0.99), 2.19e9);

  // merge widens the range; diff keeps the newer snapshot's range.
  h.record_ns(1000);
  const HistogramSnapshot two = h.snapshot();
  EXPECT_EQ(two.min_ns, 1000u);
  EXPECT_EQ(two.max_ns, 2'190'000'000u);
  const HistogramSnapshot delta = two.diff(one);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_EQ(delta.min_ns, 1000u);
  EXPECT_EQ(delta.max_ns, 2'190'000'000u);
  EXPECT_EQ(two.diff(two), HistogramSnapshot{});
  HistogramSnapshot merged;
  merged.merge(one);
  LatencyHistogram small;
  small.record_ns(7);
  merged.merge(small.snapshot());
  EXPECT_EQ(merged.min_ns, 7u);
  EXPECT_EQ(merged.max_ns, 2'190'000'000u);
  EXPECT_EQ(merged.count, 2u);
  EXPECT_EQ(merged.total_ns, 2'190'000'007u);
  h.reset();
  EXPECT_EQ(h.snapshot(), HistogramSnapshot{});
}

TEST(TelemetryMetrics, CountersAreRegistryCells) {
  // A site holding its counter reference and a by-name add charge the
  // same cell; reset() zeroes it in place and a zero reads as absent.
  CounterRegistry reg;
  Counter& held = reg.counter("io.test_cell");
  held.add(3);
  reg.add("io.test_cell", 2);
  EXPECT_EQ(reg.get("io.test_cell"), 5u);
  EXPECT_EQ(&reg.counter("io.test_cell"), &held);
  reg.reset();
  EXPECT_EQ(held.get(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
  held.add();
  EXPECT_EQ(reg.snapshot().at("io.test_cell"), 1u);
  EXPECT_THROW((void)reg.counter(""), Error);
}

TEST(TelemetryMetrics, SnapshotMergeIsExact) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record_ns(2);    // bucket 1
  a.record_ns(100);  // bucket 6
  b.record_ns(2);
  b.record_ns(1 << 20);

  HistogramSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.total_ns, 2u + 100u + 2u + (1u << 20));
  EXPECT_EQ(sa.buckets[1], 2u);

  // Live merge back into a histogram (the cross-rank path).
  LatencyHistogram c;
  c.merge(sa);
  EXPECT_EQ(c.count(), 4u);
  EXPECT_EQ(c.snapshot().buckets[1], 2u);
}

TEST(TelemetryMetrics, RegistryMergeAndReset) {
  MetricsRegistry reg;
  reg.histogram("a").record_ns(10);

  MetricsRegistry other;
  other.histogram("a").record_ns(10);
  other.histogram("b").record_ns(1000);

  reg.merge(other.snapshot());
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("a").count, 2u);
  EXPECT_EQ(snap.at("b").count, 1u);

  reg.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.at("a").count, 0u);  // names retained, counts zeroed
  EXPECT_EQ(snap.at("b").count, 0u);
}

// ---- JSONL round trip ------------------------------------------------

TelemetryFile make_file() {
  TelemetryFile file;
  file.meta["tool"] = "test";
  file.meta["pipeline"] = "similarity";

  for (std::uint64_t i = 0; i < 3; ++i) {
    Sample s;
    s.seq = i;
    s.wall_ns = 1000 * (i + 1);
    s.res.rss_bytes = 1 << 20;
    s.res.peak_rss_bytes = 2 << 20;
    s.res.user_cpu_ns = 5000 * (i + 1);
    s.res.sys_cpu_ns = 100 * (i + 1);
    s.counters["io.read_bytes"] = 4096 * (i + 1);
    s.counters["telemetry.samples"] = i + 1;
    s.gauges["trace.open_spans"] = 0.0;
    s.gauges["io.pool.queue_depth"] = static_cast<double>(i);
    file.samples.push_back(std::move(s));
  }

  file.stages.push_back({"read", 0.5, std::uint64_t{1} << 20, 128u});
  file.stages.push_back({"compute", 1.5, 0u, 128u});

  RankRecord r0;
  r0.rank = 0;
  r0.counters["haee.rows_owned"] = 100;
  RankRecord r1;
  r1.rank = 1;
  r1.counters["haee.rows_owned"] = 300;
  file.ranks = {r0, r1};

  AggRecord agg;
  agg.counter = "haee.rows_owned";
  agg.sum = 400;
  agg.min = 100;
  agg.max = 300;
  agg.min_rank = 0;
  agg.max_rank = 1;
  agg.imbalance = 1.5;
  file.aggs.push_back(agg);

  HistRecord h;
  h.name = "haee.stage_ns";
  h.count = 7;
  h.total_ns = 12345;
  h.p50_ns = 1000.0;
  h.p95_ns = 2000.0;
  h.p99_ns = 3000.0;
  h.buckets[3] = 4;
  h.buckets[10] = 3;
  file.hists.push_back(h);
  return file;
}

TEST(TelemetryJsonl, RoundTripPreservesEveryRecord) {
  const TelemetryFile file = make_file();
  std::ostringstream os;
  write_telemetry_file(os, file);

  const TelemetryFile back = parse_telemetry_jsonl(os.str());
  EXPECT_EQ(back.meta.at("schema"), kSchemaVersion);
  EXPECT_EQ(back.meta.at("tool"), "test");
  EXPECT_EQ(back.meta.at("pipeline"), "similarity");

  ASSERT_EQ(back.samples.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.samples[i].seq, file.samples[i].seq);
    EXPECT_EQ(back.samples[i].wall_ns, file.samples[i].wall_ns);
    EXPECT_EQ(back.samples[i].res.rss_bytes, file.samples[i].res.rss_bytes);
    EXPECT_EQ(back.samples[i].res.user_cpu_ns,
              file.samples[i].res.user_cpu_ns);
    EXPECT_EQ(back.samples[i].counters, file.samples[i].counters);
    EXPECT_EQ(back.samples[i].gauges, file.samples[i].gauges);
  }

  ASSERT_EQ(back.stages.size(), 2u);
  EXPECT_EQ(back.stages[0].name, "read");
  EXPECT_DOUBLE_EQ(back.stages[0].seconds, 0.5);
  EXPECT_EQ(back.stages[0].bytes, 1u << 20);
  EXPECT_EQ(back.stages[0].rows, 128u);

  ASSERT_EQ(back.ranks.size(), 2u);
  EXPECT_EQ(back.ranks[1].counters.at("haee.rows_owned"), 300u);

  ASSERT_EQ(back.aggs.size(), 1u);
  EXPECT_EQ(back.aggs[0].sum, 400u);
  EXPECT_EQ(back.aggs[0].max_rank, 1);
  EXPECT_DOUBLE_EQ(back.aggs[0].imbalance, 1.5);

  ASSERT_EQ(back.hists.size(), 1u);
  EXPECT_EQ(back.hists[0].count, 7u);
  EXPECT_EQ(back.hists[0].buckets[3], 4u);
  EXPECT_EQ(back.hists[0].buckets[10], 3u);

  // The round-tripped file satisfies the validator.
  validate_telemetry_file(back);
}

TEST(TelemetryJsonl, ParserRejectsGarbage) {
  EXPECT_THROW((void)parse_telemetry_jsonl("not json\n"), FormatError);
  EXPECT_THROW((void)parse_telemetry_jsonl("{\"type\":\"wat\"}\n"),
               FormatError);
  EXPECT_THROW((void)parse_telemetry_jsonl("{\"no_type\":1}\n"),
               FormatError);
  EXPECT_THROW(  // sample without its required fields
      (void)parse_telemetry_jsonl("{\"type\":\"sample\",\"seq\":0}\n"),
      FormatError);
  try {
    (void)parse_telemetry_jsonl("{\"type\":\"meta\"}\nboom\n");
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// ---- validator teeth -------------------------------------------------

TEST(TelemetryValidate, RejectsMissingOrWrongSchema) {
  TelemetryFile file;
  EXPECT_THROW(validate_telemetry_file(file), FormatError);
  file.meta["schema"] = "dassa.telemetry.v999";
  EXPECT_THROW(validate_telemetry_file(file), FormatError);
  file.meta["schema"] = kSchemaVersion;
  validate_telemetry_file(file);  // minimal but valid
}

TEST(TelemetryValidate, RejectsSeqGapAndTimeTravel) {
  TelemetryFile file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.samples[2].seq = 7;
  EXPECT_THROW(validate_telemetry_file(file), FormatError);

  file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.samples[2].wall_ns = 1;  // earlier than sample 1
  EXPECT_THROW(validate_telemetry_file(file), FormatError);
}

TEST(TelemetryValidate, RejectsDecreasingCounter) {
  TelemetryFile file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.samples[2].counters["io.read_bytes"] = 1;  // below sample 1
  EXPECT_THROW(validate_telemetry_file(file), FormatError);
}

TEST(TelemetryValidate, RejectsHistCountBucketMismatch) {
  TelemetryFile file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.hists[0].count = 99;  // buckets sum to 7
  EXPECT_THROW(validate_telemetry_file(file), FormatError);
}

TEST(TelemetryValidate, RejectsAggInconsistentWithRanks) {
  TelemetryFile file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.aggs[0].sum = 401;
  EXPECT_THROW(validate_telemetry_file(file), FormatError);

  file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.aggs[0].max_rank = 0;  // rank 1 holds the max
  EXPECT_THROW(validate_telemetry_file(file), FormatError);

  file = make_file();
  file.meta["schema"] = kSchemaVersion;
  file.ranks.clear();  // aggregates with nothing to back them
  EXPECT_THROW(validate_telemetry_file(file), FormatError);
}

// ---- health report ---------------------------------------------------

TEST(TelemetryHealth, ReportCoversStagesRanksAndLatency) {
  TelemetryFile file = make_file();
  file.meta["schema"] = kSchemaVersion;
  std::ostringstream os;
  write_health_report(os, file);
  const std::string report = os.str();
  EXPECT_NE(report.find("dassa pipeline health"), std::string::npos);
  EXPECT_NE(report.find("stages:"), std::string::npos);
  EXPECT_NE(report.find("read"), std::string::npos);
  EXPECT_NE(report.find("rank balance (2 ranks)"), std::string::npos);
  EXPECT_NE(report.find("haee.rows_owned"), std::string::npos);
  EXPECT_NE(report.find("latency (cluster-merged)"), std::string::npos);
  EXPECT_NE(report.find("no stalls detected"), std::string::npos);
  EXPECT_EQ(report.find("WARNING: stall"), std::string::npos);
}

TEST(TelemetryHealth, FlagsIntervalWithOpenSpansButNoProgress) {
  TelemetryFile file = make_file();
  file.meta["schema"] = kSchemaVersion;
  // Sample 1 -> 2: counters frozen (except the sampler's own), spans
  // open. That is the definition of a stall.
  file.samples[2].counters = file.samples[1].counters;
  file.samples[2].counters["telemetry.samples"] =
      file.samples[1].counters.at("telemetry.samples") + 1;
  file.samples[2].gauges["trace.open_spans"] = 2.0;
  validate_telemetry_file(file);  // still schema-valid

  std::ostringstream os;
  write_health_report(os, file);
  EXPECT_NE(os.str().find("WARNING: stall"), std::string::npos);
}

}  // namespace
}  // namespace dassa::telemetry
