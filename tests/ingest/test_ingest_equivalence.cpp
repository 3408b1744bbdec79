// The streaming contract (docs/INGEST.md): the sliding-window driver's
// assembled similarity map is byte-identical to one offline pass over
// the same files -- at world size 1 and at world size 4, across window
// geometries, including windows that end mid-stream at drain time.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "dassa/common/metrics.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/ingest/driver.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::ingest {
namespace {

std::vector<std::string> make_acquisition(const testing::TmpDir& dir,
                                          std::size_t files,
                                          double seconds_per_file) {
  das::SynthDas synth = das::SynthDas::fig1b_scene(/*channels=*/12,
                                                   /*sampling_hz=*/50.0,
                                                   /*seed=*/20260809);
  das::AcquisitionSpec spec;
  spec.dir = dir.str();
  spec.file_count = files;
  spec.seconds_per_file = seconds_per_file;
  return das::write_acquisition(synth, spec);
}

core::Array2D offline_similarity(const std::vector<std::string>& files,
                                 const das::LocalSimilarityParams& p,
                                 const core::EngineConfig& engine) {
  const io::Vca vca = io::Vca::build(files);
  return das::local_similarity_distributed(engine, vca, p).output;
}

core::Array2D streamed_similarity(const std::vector<std::string>& files,
                                  IngestConfig cfg,
                                  std::size_t* windows_out = nullptr) {
  IngestDriver driver(cfg);
  for (const std::string& f : files) driver.add_file(SpoolFile{f, 1});
  IngestResult r = driver.finish();
  if (windows_out != nullptr) *windows_out = r.windows;
  return std::move(r.similarity);
}

das::LocalSimilarityParams small_params() {
  das::LocalSimilarityParams p;
  p.window_half = 10;
  p.lag_half = 5;
  return p;
}

TEST(IngestEquivalenceTest, StreamedMatchesBatchWorldSize1) {
  testing::TmpDir dir("equiv_w1");
  const auto files = make_acquisition(dir, 5, 2.0);  // 5 x 100 cols

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 1;

  std::size_t windows = 0;
  const core::Array2D streamed = streamed_similarity(files, cfg, &windows);
  EXPECT_GE(windows, 2u) << "geometry did not exercise multiple windows";
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);  // bitwise: Array2D compares data exactly
}

TEST(IngestEquivalenceTest, StreamedMatchesBatchWorldSize4) {
  testing::TmpDir dir("equiv_w4");
  const auto files = make_acquisition(dir, 6, 2.0);

  IngestConfig cfg;
  cfg.window_files = 4;
  cfg.overlap_files = 2;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 4;
  cfg.engine.cores_per_node = 2;

  std::size_t windows = 0;
  const core::Array2D streamed = streamed_similarity(files, cfg, &windows);
  EXPECT_GE(windows, 2u);
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);
}

TEST(IngestEquivalenceTest, OverlapOfExactlyTwoMarginsMatchesBatch) {
  // The tightest legal geometry: 100-column files, a one-file overlap,
  // and M + L + B - 1 = 12 + 7 + 31 = 50, so the overlap is exactly
  // 2 x margin and every interior emit edge sits exactly one margin
  // from its window edge.
  das::LocalSimilarityParams p;
  p.window_half = 12;
  p.lag_half = 7;
  ASSERT_EQ(udf_margin_cols(p), 50U);
  testing::TmpDir dir("equiv_tight");
  const auto files = make_acquisition(dir, 5, 2.0);

  for (const int nodes : {1, 4}) {
    IngestConfig cfg;
    cfg.window_files = 3;
    cfg.overlap_files = 1;
    cfg.similarity = p;
    cfg.detect = false;
    cfg.engine.nodes = nodes;
    cfg.engine.cores_per_node = 1;

    std::size_t windows = 0;
    const core::Array2D streamed = streamed_similarity(files, cfg, &windows);
    EXPECT_GE(windows, 3U) << "nodes " << nodes;
    EXPECT_EQ(streamed, offline_similarity(files, p, cfg.engine))
        << "nodes " << nodes;
  }
}

TEST(IngestMarginTest, CoversSpanAndAnchorReach) {
  das::LocalSimilarityParams p;
  p.window_half = 10;
  p.lag_half = 5;
  EXPECT_EQ(udf_margin_cols(p), 10U + 5U + das::kSimilarityAnchor - 1);
  EXPECT_EQ(udf_margin_cols(das::LocalSimilarityParams{}), 25U + 10U + 31U);
  p.window_half = std::numeric_limits<std::size_t>::max() - 40;
  p.lag_half = 10;
  EXPECT_THROW((void)udf_margin_cols(p), InvalidArgument);
  p.window_half = 1;
  p.lag_half = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW((void)udf_margin_cols(p), InvalidArgument);
}

TEST(IngestEquivalenceTest, DrainMidWindowStillMatchesBatch) {
  testing::TmpDir dir("equiv_drain");
  // 4 files with a 3-file window: the last file only ever appears in
  // the drain-time final window.
  const auto files = make_acquisition(dir, 4, 2.0);

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 2;
  cfg.engine.cores_per_node = 1;

  const core::Array2D streamed = streamed_similarity(files, cfg);
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);
}

TEST(IngestEquivalenceTest, EventsMatchBatchDetection) {
  testing::TmpDir dir("equiv_events");
  const auto files = make_acquisition(dir, 5, 2.0);

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = true;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 2;

  IngestDriver driver(cfg);
  for (const std::string& f : files) driver.add_file(SpoolFile{f, 1});
  const IngestResult r = driver.finish();

  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  const auto batch_events = das::detect_events(offline, cfg.detector);
  ASSERT_EQ(r.events.size(), batch_events.size());
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    EXPECT_EQ(r.events[i].type, batch_events[i].type);
    EXPECT_EQ(r.events[i].channel_lo, batch_events[i].channel_lo);
    EXPECT_EQ(r.events[i].channel_hi, batch_events[i].channel_hi);
    EXPECT_EQ(r.events[i].time_lo, batch_events[i].time_lo);
    EXPECT_EQ(r.events[i].time_hi, batch_events[i].time_hi);
    EXPECT_EQ(r.events[i].peak_similarity, batch_events[i].peak_similarity);
  }
}

TEST(IngestEquivalenceTest, RecordsPerFileLatency) {
  testing::TmpDir dir("equiv_latency");
  const auto files = make_acquisition(dir, 4, 2.0);

  IngestConfig cfg;
  cfg.window_files = 2;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 1;

  const std::uint64_t before =
      global_metrics().histogram("ingest.file_to_detection").snapshot().count;
  const core::Array2D streamed = streamed_similarity(files, cfg);
  EXPECT_GT(streamed.shape.size(), 0u);
  const auto after =
      global_metrics().histogram("ingest.file_to_detection").snapshot();
  // Every file's ingest-to-detection latency was recorded exactly once.
  EXPECT_EQ(after.count - before, files.size());
}

TEST(IngestEquivalenceTest, LiveVcaIndexRepublishesAtomically) {
  testing::TmpDir dir("equiv_index");
  const auto files = make_acquisition(dir, 3, 2.0);
  const std::string index = dir.file("live.vca");

  IngestConfig cfg;
  cfg.window_files = 2;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 1;
  cfg.vca_index_path = index;

  IngestDriver driver(cfg);
  std::size_t n = 0;
  for (const std::string& f : files) {
    driver.add_file(SpoolFile{f, 1});
    ++n;
    // After every append the on-disk index is a loadable, complete
    // snapshot of everything ingested so far.
    const io::Vca loaded = io::Vca::load(index);
    EXPECT_EQ(loaded.members().size(), n);
    EXPECT_EQ(loaded.shape(), driver.live_vca().snapshot()->shape());
  }
  (void)driver.finish();
}

}  // namespace
}  // namespace dassa::ingest
