// Live introspection (serve/stats.hpp): kStats wire-format round-trip
// and malformed-frame rejection, the pinned regression that every
// serve.lat.* stage histogram records exactly once per answered
// request, the das_ingest-style StatsListener, and a concurrency
// stress of kStats polls against a server under load (runs under the
// TSan leg of check.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/search.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/dsp/fft.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/serve/client.hpp"
#include "dassa/serve/server.hpp"
#include "dassa/serve/stats.hpp"
#include "testing/tmpdir.hpp"

using namespace dassa;
using dassa::testing::TmpDir;

namespace {

/// Small chunked+compressed acquisition published as arch.vca + .tix.
struct ServedArchive {
  explicit ServedArchive(const TmpDir& dir) {
    const das::SynthDas synth =
        das::SynthDas::fig1b_scene(16, 50.0, /*seed=*/20260809);
    das::AcquisitionSpec spec;
    spec.dir = dir.file("data");
    spec.start = das::Timestamp::parse("170728224510");
    spec.file_count = 4;
    spec.seconds_per_file = 4.0;
    spec.chunk = io::ChunkShape{8, 64};
    spec.codec = io::CodecSpec::parse("shuffle+lz");
    spec.per_channel_metadata = false;
    const std::vector<std::string> paths =
        das::write_acquisition(synth, spec);
    vca_path = dir.file("arch.vca");
    das::save_vca_with_index(io::Vca::build(paths), vca_path);
    reference = io::Vca::load(vca_path);
  }

  std::string vca_path;
  io::Vca reference;
};

serve::ServeConfig base_config(const TmpDir& dir,
                               const ServedArchive& archive) {
  serve::ServeConfig cfg;
  cfg.socket_path = dir.file("s.sock");
  cfg.archive = archive.vca_path;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.max_batch = 8;
  cfg.coalesce_window_us = 2000;
  return cfg;
}

/// A synthetic snapshot exercising every wire-format section.
serve::StatsSnapshot sample_snapshot() {
  serve::StatsSnapshot s;
  s.wall_ns = 123456789;
  s.counters["io.read_calls"] = 42;
  s.counters["serve.requests"] = 7;
  s.counters["zero.counter"] = 0;
  s.gauges["ingest.queue.depth"] = 3.0;
  s.gauges["negative.gauge"] = -1.5;
  HistogramSnapshot h;
  h.buckets[0] = 2;
  h.buckets[17] = 5;
  h.buckets[63] = 1;
  h.count = 8;
  h.total_ns = 90000;
  h.min_ns = 1;
  h.max_ns = std::uint64_t{1} << 63;
  s.hists["serve.request"] = h;
  s.hists["empty.hist"] = HistogramSnapshot{};
  return s;
}

std::uint64_t hist_count(const char* name) {
  const auto snap = global_metrics().snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second.count;
}

/// Counter lookup defaulting to 0: registry entries appear on first
/// charge, so a pre-traffic snapshot legitimately lacks serve.*.
std::uint64_t counter_of(const serve::StatsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

}  // namespace

TEST(ServeStats, RoundTripPreservesEverySection) {
  const serve::StatsSnapshot s = sample_snapshot();
  const serve::StatsSnapshot back = serve::decode_stats(serve::encode_stats(s));
  EXPECT_EQ(back, s);
}

TEST(ServeStats, EmptySnapshotRoundTrips) {
  serve::StatsSnapshot s;
  s.wall_ns = 1;
  EXPECT_EQ(serve::decode_stats(serve::encode_stats(s)), s);
}

TEST(ServeStats, RequestFrameRoundTrips) {
  const auto frame = serve::encode_stats_request();
  EXPECT_NO_THROW(serve::decode_stats_request(frame));
  // Trailing byte after the type: rejected, not ignored.
  auto padded = frame;
  padded.push_back(std::byte{0});
  EXPECT_THROW(serve::decode_stats_request(padded), FormatError);
  EXPECT_THROW(serve::decode_stats_request({}), FormatError);
}

TEST(ServeStats, EveryTruncationIsRejected) {
  const auto frame = serve::encode_stats(sample_snapshot());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::byte> cut(frame.begin(),
                                     frame.begin() + static_cast<long>(len));
    EXPECT_THROW(serve::decode_stats(cut), FormatError) << "len=" << len;
  }
  auto padded = frame;
  padded.push_back(std::byte{0});
  EXPECT_THROW(serve::decode_stats(padded), FormatError) << "trailing byte";
}

TEST(ServeStats, ForgedFramesAreRejected) {
  // Wrong type byte.
  auto frame = serve::encode_stats(sample_snapshot());
  frame[0] = std::byte{99};
  EXPECT_THROW(serve::decode_stats(frame), FormatError);

  // Unsupported version (bytes 1..4, little-endian u32).
  frame = serve::encode_stats(sample_snapshot());
  frame[1] = std::byte{0xff};
  EXPECT_THROW(serve::decode_stats(frame), FormatError);

  // Out-of-order section names: swap the two counter names' first
  // bytes so they decode out of ascending order.
  serve::StatsSnapshot s;
  s.counters["aaa"] = 1;
  s.counters["bbb"] = 2;
  frame = serve::encode_stats(s);
  std::vector<std::byte> swapped = frame;
  for (std::size_t i = 0; i + 3 <= swapped.size(); ++i) {
    if (std::memcmp(swapped.data() + i, "aaa", 3) == 0) {
      std::memcpy(swapped.data() + i, "ccc", 3);
      break;
    }
  }
  EXPECT_THROW(serve::decode_stats(swapped), FormatError);

  // Duplicate names (equal is not strictly increasing).
  swapped = frame;
  for (std::size_t i = 0; i + 3 <= swapped.size(); ++i) {
    if (std::memcmp(swapped.data() + i, "bbb", 3) == 0) {
      std::memcpy(swapped.data() + i, "aaa", 3);
      break;
    }
  }
  EXPECT_THROW(serve::decode_stats(swapped), FormatError);

  // Histogram whose bucket sum disagrees with its declared count.
  serve::StatsSnapshot sh;
  HistogramSnapshot h;
  h.buckets[3] = 4;
  h.count = 4;
  h.total_ns = 100;
  sh.hists["h"] = h;
  frame = serve::encode_stats(sh);
  // The count field sits right after the 1-byte name "h" preceded by
  // its u32 length; corrupt the count by locating its encoded value.
  bool corrupted = false;
  for (std::size_t i = 0; i + 8 <= frame.size(); ++i) {
    std::uint64_t v;
    std::memcpy(&v, frame.data() + i, 8);
    if (v == 4) {
      v = 5;
      std::memcpy(frame.data() + i, &v, 8);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(serve::decode_stats(frame), FormatError);

  // Entry-count ceiling enforced before allocation: forge a counters
  // section claiming 2^31 entries.
  serve::StatsSnapshot empty;
  frame = serve::encode_stats(empty);
  // Layout: type(1) version(4) wall(8) counters_n(4) ...
  const std::uint32_t huge = 1u << 31;
  std::memcpy(frame.data() + 13, &huge, 4);
  EXPECT_THROW(serve::decode_stats(frame), FormatError);
  // A histogram range that is inverted, or set on an empty histogram.
  sh.hists["h"].min_ns = 20;
  sh.hists["h"].max_ns = 10;
  EXPECT_THROW(serve::decode_stats(serve::encode_stats(sh)), FormatError);
  sh.hists["h"] = HistogramSnapshot{};
  sh.hists["h"].max_ns = 5;
  EXPECT_THROW(serve::decode_stats(serve::encode_stats(sh)), FormatError);
}

TEST(ServeStats, TornSnapshotIsReconciledBeforeEncoding) {
  // A histogram's count is the sum of its buckets, and its range is
  // published before its bucket, so a snapshot taken while other
  // threads record_ns() can never disagree with itself: every one
  // encodes to a frame the strict decoder accepts.
  LatencyHistogram& h = global_metrics().histogram("serve.torn_test");
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < 3; ++t) {
    writers.emplace_back([t, &h, &done] {
      for (std::uint64_t i = 1; !done.load(std::memory_order_relaxed); ++i) {
        h.record_ns((i * 7919 + t) % 100000);
      }
    });
  }
  // Poll until the writers have been recording for a while (bounded).
  for (int i = 0; i < 100000 && (i < 500 || h.count() < 10000); ++i) {
    const serve::StatsSnapshot s = snapshot_metrics();
    EXPECT_EQ(serve::decode_stats(serve::encode_stats(s)), s);
  }
  done.store(true);
  for (std::thread& w : writers) w.join();
  EXPECT_GE(h.count(), 10000u);
}

TEST(ServeStats, LiveStatsCarryDspAndTraceCounters) {
  // Every counter is a registry cell charged where the event happens,
  // so a live poll of a running server sees the DSP plan cache and the
  // tracer without any publish step.
  TmpDir dir("serve_stats_counters");
  ServedArchive archive(dir);
  serve::Server server(base_config(dir, archive));
  server.start();
  (void)dsp::rfft(std::vector<double>(1237, 1.0));
  trace::set_enabled(true);
  { DASSA_TRACE_SPAN("test", "test.live_counters"); }
  trace::set_enabled(false);

  serve::Connection poll = serve::connect_local(server.config().socket_path);
  const serve::StatsSnapshot s = serve::fetch_stats(poll);
  EXPECT_GT(counter_of(s, counters::kDspFftPlanMisses), 0u);
  EXPECT_GT(counter_of(s, counters::kTraceSpansEmitted), 0u);
  server.stop();
}

TEST(ServeStats, ListenerStartFailureLeavesDestructorSafe) {
  // start() marks started_ before binding the socket, so a bad path
  // throws with no listener and no accept thread; the destructor's
  // stop() must survive that half-started state (das_ingest unwinds
  // through exactly this on a bad --stats-socket).
  serve::StatsListener listener("/nonexistent-dassa-dir/stats.sock");
  EXPECT_THROW(listener.start(), Error);
}

TEST(ServeStats, ListenerReapsFinishedConnections) {
  TmpDir dir("serve_stats_reap");
  serve::StatsListener listener(dir.file("stats.sock"));
  listener.start();

  // Short-lived pollers (das_top --once, scrapes): each connects,
  // polls once, and hangs up before the next arrives. Reaping on
  // accept must keep the tracked-slot count bounded instead of
  // accumulating one joinable thread per poller until stop().
  constexpr std::size_t kPollers = 32;
  for (std::size_t i = 0; i < kPollers; ++i) {
    serve::Connection conn = serve::connect_local(listener.path());
    EXPECT_NO_THROW((void)serve::fetch_stats(conn));
  }
  EXPECT_LT(listener.tracked_connections(), kPollers / 2);
  listener.stop();
  EXPECT_EQ(listener.tracked_connections(), 0u);
}

TEST(ServeStats, LiveServerAnswersStatsInline) {
  TmpDir dir("serve_stats_live");
  ServedArchive archive(dir);
  serve::Server server(base_config(dir, archive));
  server.start();

  serve::Connection poll = serve::connect_local(server.config().socket_path);
  const serve::StatsSnapshot before = serve::fetch_stats(poll);
  EXPECT_TRUE(before.counters.contains(counters::kStatsRequests));
  // The admission-queue depth gauge is registered by the server, not
  // the tool, so every kStats client sees it.
  EXPECT_TRUE(before.gauges.contains("serve.queue.depth"));

  const Shape2D shape = archive.reference.shape();
  serve::Client client(server.config().socket_path);
  const Slab2D slab{0, 0, shape.rows, shape.cols / 2};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }

  // The worker charges serve.responses and the end-to-end histogram
  // just AFTER the reply frame hits the socket, so a fast poller can
  // legitimately sample before the 5th record lands. Poll until the
  // accounting catches up (bounded), then pin the exact totals.
  const auto request_delta = [&](const serve::StatsSnapshot& s) {
    const auto& h_after = s.hists.at(serve::lat::kRequest);
    const auto it = before.hists.find(serve::lat::kRequest);
    return it == before.hists.end() ? h_after : h_after.diff(it->second);
  };
  serve::StatsSnapshot after = serve::fetch_stats(poll);
  for (int i = 0; i < 200 &&
                  (counter_of(after, counters::kServeResponses) -
                           counter_of(before, counters::kServeResponses) <
                       5u ||
                   request_delta(after).count < 5u);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = serve::fetch_stats(poll);
  }
  EXPECT_GE(after.wall_ns, before.wall_ns);
  EXPECT_EQ(counter_of(after, counters::kServeResponses) -
                counter_of(before, counters::kServeResponses),
            5u);
  // Stats polls are counted but are NOT admitted requests: the
  // admission pipeline's accounting must not move on their behalf.
  EXPECT_GE(counter_of(after, counters::kStatsRequests),
            counter_of(before, counters::kStatsRequests) + 1);

  // Interval view: the end-to-end histogram diff covers exactly the 5
  // requests between the polls.
  EXPECT_EQ(request_delta(after).count, 5u);
  server.stop();
}

TEST(ServeStats, StageHistogramCountsEqualEndToEndCount) {
  TmpDir dir("serve_stats_stages");
  ServedArchive archive(dir);
  const std::uint64_t base_request = hist_count(serve::lat::kRequest);
  const std::uint64_t base_queue = hist_count(serve::lat::kQueueWait);
  const std::uint64_t base_coalesce = hist_count(serve::lat::kCoalesce);
  const std::uint64_t base_decode = hist_count(serve::lat::kDecode);
  const std::uint64_t base_write = hist_count(serve::lat::kWrite);

  serve::Server server(base_config(dir, archive));
  server.start();
  const Shape2D shape = archive.reference.shape();
  constexpr std::uint64_t kRequests = 12;
  serve::Client client(server.config().socket_path);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const Slab2D slab{0, (i * 7) % (shape.cols / 2), shape.rows, 16};
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }
  server.stop();

  // The pinned invariant: request tracing records every stage exactly
  // once per answered request -- no stage is skipped, none double
  // counts, so per-stage quantiles are quantiles over the same
  // population the end-to-end histogram describes.
  EXPECT_EQ(hist_count(serve::lat::kRequest) - base_request, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kQueueWait) - base_queue, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kCoalesce) - base_coalesce, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kDecode) - base_decode, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kWrite) - base_write, kRequests);
}

TEST(ServeStats, TracingOffKeepsStageHistogramsQuiet) {
  TmpDir dir("serve_stats_off");
  ServedArchive archive(dir);
  const std::uint64_t base_request = hist_count(serve::lat::kRequest);
  const std::uint64_t base_queue = hist_count(serve::lat::kQueueWait);

  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.request_tracing = false;
  serve::Server server(cfg);
  server.start();
  const Shape2D shape = archive.reference.shape();
  serve::Client client(cfg.socket_path);
  const Slab2D slab{0, 0, shape.rows, 16};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }
  server.stop();

  // End-to-end accounting survives with tracing off; the stage
  // histograms stay untouched.
  EXPECT_EQ(hist_count(serve::lat::kRequest) - base_request, 4u);
  EXPECT_EQ(hist_count(serve::lat::kQueueWait) - base_queue, 0u);
}

TEST(ServeStats, SlowRequestThresholdChargesCounter) {
  TmpDir dir("serve_stats_slow");
  ServedArchive archive(dir);
  const std::uint64_t base_slow =
      global_counters().get(counters::kServeSlowRequests);

  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.slow_ns = 1;  // every request is over this threshold
  serve::Server server(cfg);
  server.start();
  const Shape2D shape = archive.reference.shape();
  serve::Client client(cfg.socket_path);
  const Slab2D slab{0, 0, shape.rows, 16};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }
  server.stop();
  EXPECT_EQ(global_counters().get(counters::kServeSlowRequests) - base_slow,
            3u);
}

TEST(ServeStats, StatsListenerServesAndRefuses) {
  TmpDir dir("serve_stats_listener");
  serve::StatsListener listener(dir.file("stats.sock"));
  listener.start();

  serve::Connection conn = serve::connect_local(listener.path());
  const std::uint64_t base_bad =
      global_counters().get(counters::kStatsBadFrames);
  const serve::StatsSnapshot s = serve::fetch_stats(conn);
  EXPECT_TRUE(s.counters.contains(counters::kStatsRequests));

  // Garbage gets a typed kBadRequest refusal, and the connection stays
  // serviceable for the valid poll that follows.
  conn.send_frame(std::vector<std::byte>(5, std::byte{0xee}));
  const auto reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  const serve::ReadResponse refusal = serve::decode_response(*reply);
  EXPECT_FALSE(refusal.ok);
  EXPECT_EQ(refusal.code, serve::ErrorCode::kBadRequest);
  EXPECT_GE(global_counters().get(counters::kStatsBadFrames), base_bad + 1);
  EXPECT_NO_THROW((void)serve::fetch_stats(conn));

  listener.stop();
  listener.stop();  // idempotent
}

TEST(ServeStats, ConcurrentStatsPollsDuringLoad) {
  TmpDir dir("serve_stats_stress");
  ServedArchive archive(dir);
  serve::Server server(base_config(dir, archive));
  server.start();
  const Shape2D shape = archive.reference.shape();

  std::atomic<std::size_t> failures{0};
  std::atomic<bool> done{false};

  // Load: 4 clients reading overlapping windows.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client(server.config().socket_path);
      for (int r = 0; r < 8; ++r) {
        const std::size_t off = ((t * 11 + static_cast<std::size_t>(r) * 5) %
                                 (shape.cols / 2));
        const Slab2D slab{0, off, shape.rows, 32};
        if (client.read_slab(slab) != archive.reference.read_slab(slab)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Monitors: 2 pollers hammering kStats on their own connections
  // while the workers mutate every registry the snapshot reads.
  for (int m = 0; m < 2; ++m) {
    threads.emplace_back([&] {
      serve::Connection conn =
          serve::connect_local(server.config().socket_path);
      std::uint64_t last_responses = 0;
      while (!done.load()) {
        serve::StatsSnapshot s;
        try {
          s = serve::fetch_stats(conn);
        } catch (const Error&) {
          failures.fetch_add(1);
          return;
        }
        // Monotonicity across one poller's consecutive snapshots.
        const auto it = s.counters.find(counters::kServeResponses);
        const std::uint64_t responses =
            it == s.counters.end() ? 0 : it->second;
        if (responses < last_responses) failures.fetch_add(1);
        last_responses = responses;
      }
    });
  }
  for (std::size_t t = 0; t < 4; ++t) threads[t].join();
  done.store(true);
  for (std::size_t t = 4; t < threads.size(); ++t) threads[t].join();
  server.stop();
  EXPECT_EQ(failures.load(), 0u);
}
