// Tracer core + chrome-trace schema tests: span recording through the
// thread-local rings, drop-newest overflow, rank labeling across
// MiniMPI rank threads and ThreadPool workers, and the exported JSON's
// structural contract -- required event fields, balanced begin/end
// pairs per (pid, tid) lane, monotonic timestamps -- under both a
// single thread and rank-threads x pool-threads. The five-layer test
// drives a real v3 acquisition through the engine and requires spans
// from io, codec, cache, par_read, haee, and dsp in one trace.
#include "dassa/common/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/dsp/fft.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/mpi/runtime.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::trace {
namespace {

using testing::TmpDir;

/// Every test starts and ends with a quiet, empty tracer.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_ring_capacity(kDefaultRingCapacity);
    clear();
  }
  void TearDown() override {
    set_enabled(false);
    set_ring_capacity(kDefaultRingCapacity);
    clear();
  }
};

void emit_named_pair() {
  DASSA_TRACE_SPAN("test", "test.outer");
  DASSA_TRACE_SPAN("test", "test.inner");
}

TEST_F(TraceTest, DisabledEmitsNothing) {
  emit_named_pair();
  EXPECT_TRUE(collect().empty());
}

TEST_F(TraceTest, EnabledRecordsNestedSpans) {
  set_enabled(true);
  emit_named_pair();
  set_enabled(false);
  const std::vector<TraceEvent> events = collect();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start ascending, then duration descending: outer first.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_STREQ(events[0].cat, "test");
  // The inner span nests inside the outer one.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
  clear();
  EXPECT_TRUE(collect().empty());
}

TEST_F(TraceTest, RingOverflowDropsNewestAndCounts) {
  // A small ring on a fresh thread: the first `cap` spans survive, the
  // rest are dropped (prefix-consistent), and the drop is counted.
  set_ring_capacity(8);
  set_enabled(true);
  const std::uint64_t dropped_before = dropped_spans();
  std::thread t([] {
    for (int i = 0; i < 50; ++i) {
      DASSA_TRACE_SPAN("test", "test.flood");
    }
  });
  t.join();
  set_enabled(false);
  std::size_t flood = 0;
  for (const TraceEvent& e : collect()) {
    if (std::string_view(e.name) == "test.flood") ++flood;
  }
  EXPECT_EQ(flood, 8u);
  EXPECT_EQ(dropped_spans() - dropped_before, 42u);
}

TEST_F(TraceTest, PublishTraceCountersReachesGlobalRegistry) {
  // The tracer charges its registry counters as spans complete: a live
  // snapshot carries them with no publish step in between.
  CounterRegistry& reg = global_counters();
  const std::uint64_t emitted = reg.get(counters::kTraceSpansEmitted);
  set_enabled(true);
  std::thread([] { emit_named_pair(); }).join();  // a new thread's ring
  set_enabled(false);
  EXPECT_EQ(reg.get(counters::kTraceSpansEmitted), emitted + 2);
  EXPECT_GE(reg.get(counters::kTraceThreads), 1u);
  EXPECT_EQ(snapshot_metrics().counters.at(counters::kTraceSpansEmitted),
            emitted + 2);
}

TEST_F(TraceTest, SpanDurationsFeedMetricsHistograms) {
  set_enabled(true);
  emit_named_pair();
  set_enabled(false);
  EXPECT_GE(global_metrics().histogram("test.outer").count(), 1u);
  const HistogramSnapshot snap =
      global_metrics().histogram("test.outer").snapshot();
  EXPECT_GE(snap.quantile_ns(0.99), snap.quantile_ns(0.5));
}

// ---- chrome-trace schema ---------------------------------------------

std::string export_json() {
  std::ostringstream os;
  write_chrome_trace(os, collect());
  return os.str();
}

/// Structural checks shared by the single-thread and multi-thread
/// schema tests: required fields present (parse throws otherwise),
/// B/E balanced with matching names per lane, per-lane timestamps
/// monotonic (validate throws otherwise).
std::vector<ChromeEvent> parse_and_validate(const std::string& json) {
  const std::vector<ChromeEvent> events = parse_chrome_trace(json);
  validate_chrome_trace(events);
  return events;
}

TEST_F(TraceTest, ChromeExportValidatesSingleThread) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) emit_named_pair();
  set_enabled(false);
  const std::vector<ChromeEvent> events = parse_and_validate(export_json());

  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t meta = 0;
  for (const ChromeEvent& e : events) {
    if (e.ph == "B") ++begins;
    if (e.ph == "E") ++ends;
    if (e.ph == "M") ++meta;
  }
  EXPECT_EQ(begins, 6u);
  EXPECT_EQ(ends, 6u);
  EXPECT_GE(meta, 1u);  // process_name metadata for the unranked lane
}

TEST_F(TraceTest, ChromeExportValidatesAcrossRanksAndPools) {
  set_enabled(true);
  mpi::Runtime::run(3, [&](mpi::Comm& comm) {
    DASSA_TRACE_SPAN("test", "test.rank_body");
    ThreadPool pool(2);
    pool.parallel_for(8, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        DASSA_TRACE_SPAN("test", "test.pool_chunk");
      }
    });
    (void)comm;
  });
  set_enabled(false);
  const std::vector<ChromeEvent> events = parse_and_validate(export_json());

  // Rank lanes 0..2 export as pids 1..3; pool workers inherit their
  // creating rank's lane. mpi.rank spans come from Runtime itself.
  std::set<long long> pids;
  for (const ChromeEvent& e : events) {
    if (e.ph == "B") pids.insert(e.pid);
  }
  EXPECT_TRUE(pids.count(1) && pids.count(2) && pids.count(3))
      << "expected one process lane per rank";
  std::size_t pool_spans = 0;
  for (const ChromeEvent& e : events) {
    if (e.ph == "B" && e.name == "test.pool_chunk") {
      ++pool_spans;
      EXPECT_GE(e.pid, 1) << "pool span lost its creator's rank";
    }
  }
  EXPECT_GE(pool_spans, 3u);
}

TEST_F(TraceTest, ValidatorRejectsMalformedTraces) {
  // Missing required field.
  EXPECT_THROW(
      (void)parse_chrome_trace(R"([{"ph":"B","cat":"c","ts":1,"pid":1,"tid":1}])"),
      FormatError);
  // Not JSON at all.
  EXPECT_THROW((void)parse_chrome_trace("not json"), FormatError);
  // Unbalanced: E without a matching B.
  {
    const auto events = parse_chrome_trace(
        R"([{"name":"a","cat":"c","ph":"E","ts":1,"pid":1,"tid":1}])");
    EXPECT_THROW(validate_chrome_trace(events), FormatError);
  }
  // Mismatched nesting names.
  {
    const auto events = parse_chrome_trace(R"([
      {"name":"a","cat":"c","ph":"B","ts":1,"pid":1,"tid":1},
      {"name":"b","cat":"c","ph":"E","ts":2,"pid":1,"tid":1}])");
    EXPECT_THROW(validate_chrome_trace(events), FormatError);
  }
  // Backwards timestamps in one lane.
  {
    const auto events = parse_chrome_trace(R"([
      {"name":"a","cat":"c","ph":"B","ts":5,"pid":1,"tid":1},
      {"name":"a","cat":"c","ph":"E","ts":2,"pid":1,"tid":1}])");
    EXPECT_THROW(validate_chrome_trace(events), FormatError);
  }
  // Dangling B at end of trace.
  {
    const auto events = parse_chrome_trace(
        R"([{"name":"a","cat":"c","ph":"B","ts":1,"pid":1,"tid":1}])");
    EXPECT_THROW(validate_chrome_trace(events), FormatError);
  }
}

TEST_F(TraceTest, SummaryListsEverySpanName) {
  set_enabled(true);
  emit_named_pair();
  set_enabled(false);
  std::ostringstream os;
  write_summary(os, collect());
  const std::string text = os.str();
  EXPECT_NE(text.find("test.outer"), std::string::npos);
  EXPECT_NE(text.find("test.inner"), std::string::npos);
}

/// Whitespace-separated fields of `line`.
std::vector<std::string> fields_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string f; in >> f;) out.push_back(f);
  return out;
}

TEST_F(TraceTest, SummaryColumnsStaySeparatedWhenWide) {
  // A 45-character span name through the real summary, and an
  // 8-digit count through its row writer: every column stays its own
  // whitespace-separated field.
  constexpr const char* kLong = "test.a_span_name_well_past_the_name_column.xx";
  ASSERT_EQ(std::string_view(kLong).size(), 45u);
  set_enabled(true);
  { DASSA_TRACE_SPAN("test", "test.a_span_name_well_past_the_name_column.xx"); }
  set_enabled(false);
  std::ostringstream os;
  write_summary(os, collect());
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);  // header
  std::getline(lines, line);
  std::vector<std::string> f = fields_of(line);
  ASSERT_EQ(f.size(), 7u) << line;
  EXPECT_EQ(f[0], kLong);
  EXPECT_EQ(f[1], "test");
  EXPECT_EQ(f[2], "1");

  std::ostringstream row;
  detail::write_summary_row(row, kLong, "pipeline", 12345678, 12345678.5,
                            1.0, 2.0, 3.0);
  f = fields_of(row.str());
  ASSERT_EQ(f.size(), 7u) << row.str();
  EXPECT_EQ(f[1], "pipeline");
  EXPECT_EQ(f[2], "12345678");
  EXPECT_EQ(f[3], "12345678.500");
}

// ---- five-layer coverage ---------------------------------------------

TEST_F(TraceTest, TracedEngineRunCoversAllFiveLayers) {
  // A compressed v3 acquisition read rank by rank and pushed through a
  // distributed row UDF that does real DSP: the resulting trace must
  // contain spans from every layer the tentpole instruments.
  TmpDir dir("tr5");
  std::vector<std::string> files;
  for (int i = 0; i < 2; ++i) {
    io::Dash5Header h;
    h.shape = {8, 64};
    h.layout = io::Layout::kChunked;
    h.chunk = {2, 32};
    h.codec = io::CodecSpec::parse("shuffle+lz");
    std::vector<double> data(h.shape.size());
    for (std::size_t k = 0; k < data.size(); ++k) {
      data[k] = static_cast<double>((k * 13 + static_cast<std::size_t>(i)) %
                                    101);
    }
    const std::string path = dir.file("m" + std::to_string(i) + ".dh5");
    io::dash5_write(path, h, data);
    files.push_back(path);
  }
  io::Vca vca = io::Vca::build(files);

  core::EngineConfig config;
  config.nodes = 2;
  config.cores_per_node = 2;
  // Each rank reads its own channel window, which goes through the
  // chunk cache; whole-file reads bypass it.
  config.read_method = core::ReadMethod::kDirectPerRank;

  set_enabled(true);
  (void)core::run_rows(config, vca, [](const core::RankContext&) {
    return [](const core::Stencil& s) {
      const std::span<const double> row = s.row_span(0);
      const std::vector<dsp::cplx> spec = dsp::rfft_half(row);
      return std::vector<double>{spec.empty() ? 0.0 : std::abs(spec[0])};
    };
  });
  set_enabled(false);

  const std::vector<TraceEvent> events = collect();
  std::set<std::string> cats;
  for (const TraceEvent& e : events) cats.insert(e.cat);
  for (const char* want : {"io", "codec", "cache", "par_read", "haee",
                           "dsp", "mpi"}) {
    EXPECT_TRUE(cats.count(want) == 1)
        << "no '" << want << "' spans in the traced engine run";
  }
  // And the whole thing exports to a valid chrome trace.
  (void)parse_and_validate(export_json());
}

}  // namespace
}  // namespace dassa::trace
