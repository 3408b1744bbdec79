// Tracer concurrency stress, written for the TSan leg of
// scripts/check.sh (suite name carries "Trace" so the -R filter picks
// it up) but cheap enough for the plain tier-1 run.
//
// The shared state under test: every HAEE hybrid rank-thread and every
// ApplyMT pool worker emits spans into its own ring while the main
// thread concurrently collect()s the global buffer registry, clear()s
// it, and flips the master toggle -- the emit path racing the
// collection path on one shared sink, mirroring test_haee_stress.cpp's
// engine-level shape.
#include "dassa/common/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "dassa/core/haee.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/dsp/fft.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::trace {
namespace {

using testing::TmpDir;

struct Fixture {
  io::Vca vca;

  explicit Fixture(TmpDir& dir, std::size_t channels, std::size_t files,
                   double secs_per_file) {
    das::SynthDas synth = das::SynthDas::fig1b_scene(channels, 100.0, 3);
    das::AcquisitionSpec spec;
    spec.dir = dir.str();
    spec.start = das::Timestamp::parse("170728224510");
    spec.file_count = files;
    spec.seconds_per_file = secs_per_file;
    spec.dtype = io::DType::kF64;
    spec.per_channel_metadata = false;
    vca = io::Vca::build(das::write_acquisition(synth, spec));
  }
};

class TraceStressTest : public ::testing::Test {
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

TEST_F(TraceStressTest, HybridEngineEmissionRacesCollection) {
  TmpDir dir("trst");
  Fixture fx(dir, 12, 2, 1.0);

  core::EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  config.mode = core::EngineMode::kHybrid;

  set_enabled(true);
  std::atomic<bool> done{false};
  // A reader thread hammering collect() while 3 rank-threads x 2 pool
  // workers emit: the registry lock vs per-buffer locks under TSan.
  std::thread reader([&] {
    std::size_t sink = 0;
    while (!done.load(std::memory_order_acquire)) {
      sink += collect().size();
      std::this_thread::yield();
    }
    EXPECT_GE(sink, 0u);
  });

  (void)core::run_rows(config, fx.vca, [](const core::RankContext&) {
    return [](const core::Stencil& s) {
      const std::span<const double> row = s.row_span(0);
      const std::vector<dsp::cplx> spec = dsp::rfft_half(row);
      double acc = 0.0;
      for (const dsp::cplx& c : spec) acc += std::norm(c);
      return std::vector<double>{acc};
    };
  });
  done.store(true, std::memory_order_release);
  reader.join();
  set_enabled(false);

  const std::vector<TraceEvent> events = collect();
  EXPECT_FALSE(events.empty());
  std::size_t apply_chunks = 0;
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == "haee.apply_rows_chunk") ++apply_chunks;
  }
  // 3 ranks x 2 pool workers, one chunk span per worker chunk.
  EXPECT_GE(apply_chunks, 3u);
}

TEST_F(TraceStressTest, ConcurrentEmitToggleAndClear) {
  // Raw shared-sink stress with a tiny ring so the drop path races
  // too: emitters flood, one thread toggles the master switch, another
  // clears. Nothing to assert beyond "no data race, balanced spans".
  set_ring_capacity(64);
  set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  emitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    emitters.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        DASSA_TRACE_SPAN("test", "test.stress_outer");
        DASSA_TRACE_SPAN("test", "test.stress_inner");
      }
    });
  }
  std::thread toggler([&] {
    for (int i = 0; i < 200; ++i) {
      set_enabled(i % 2 == 0);
      std::this_thread::yield();
    }
    set_enabled(true);
  });
  std::thread clearer([&] {
    for (int i = 0; i < 100; ++i) {
      clear();
      (void)collect();
      std::this_thread::yield();
    }
  });
  toggler.join();
  clearer.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : emitters) t.join();
  set_enabled(false);

  // Whatever survived the clears must still export as a balanced,
  // monotonic chrome trace.
  std::ostringstream os;
  write_chrome_trace(os, collect());
  validate_chrome_trace(parse_chrome_trace(os.str()));
}

}  // namespace
}  // namespace dassa::trace
