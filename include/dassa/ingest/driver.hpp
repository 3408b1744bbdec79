// Streaming ingest: the window driver (docs/INGEST.md).
//
// The driver is the daemon's consumer side. For every admitted spool
// file it (1) appends the file to the live VCA, (2) registers the
// file's width with the window planner, and (3) runs the offline
// analysis engine over each window that became complete, keeping only
// the window's emit region. At shutdown, finish() processes the
// remainder-covering final window and assembles the emitted blocks
// into one similarity map that is byte-identical to an offline
// das_analyze run over the same files (pinned by
// tests/ingest/test_ingest_equivalence.cpp).
//
// Per-file latency: every admitted file carries its admission
// timestamp; when the emit frontier passes the file's last column its
// ingest-to-detection latency is recorded into the
// "ingest.file_to_detection" histogram -- the distribution bench_ingest
// gates on (p50/p99).
//
// Single-threaded: the daemon's consumer thread owns the driver.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dassa/core/array.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/das/events.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/ingest/live_vca.hpp"
#include "dassa/ingest/spool.hpp"
#include "dassa/ingest/window.hpp"

namespace dassa::ingest {

struct IngestConfig {
  /// Window geometry, in member files.
  std::size_t window_files = 4;
  std::size_t overlap_files = 1;
  das::LocalSimilarityParams similarity{};
  das::DetectorParams detector{};
  /// Run the event detector over each emitted block as it appears
  /// (live detection log + ingest.events_detected counter).
  bool detect = true;
  core::EngineConfig engine{};
  /// Optional .vca index republished atomically after every append.
  std::string vca_index_path;
};

/// What a completed ingest run produced.
struct IngestResult {
  core::Array2D similarity;  ///< channels x every-emitted-column
  std::vector<das::DetectedEvent> events;  ///< over the full map
  io::KvList global_meta;    ///< from the first member file
  std::size_t files = 0;
  std::size_t windows = 0;
};

class IngestDriver {
 public:
  explicit IngestDriver(IngestConfig cfg);

  /// Ingest one admitted file: append to the live VCA, then process
  /// every window that became ready. Throws on shape mismatch or
  /// invalid window geometry (see WindowPlanner).
  void add_file(const SpoolFile& file);

  /// Drain: process the final window and assemble the result. The
  /// driver cannot be fed afterwards.
  [[nodiscard]] IngestResult finish();

  /// Live view of everything ingested so far (thread-safe snapshot).
  [[nodiscard]] const LiveVca& live_vca() const { return vca_; }

  [[nodiscard]] std::size_t files_ingested() const {
    return planner_.files_added();
  }
  [[nodiscard]] std::size_t windows_processed() const {
    return windows_processed_;
  }
  [[nodiscard]] std::size_t cols_emitted() const {
    return planner_.emitted_cols();
  }

  /// Called with each emitted block's events when cfg.detect is on
  /// (event coordinates are global stream columns). For the daemon's
  /// live event log; optional.
  std::function<void(const std::vector<das::DetectedEvent>&)> on_events;

 private:
  struct PendingLatency {
    std::uint64_t admit_ns = 0;
    std::size_t end_col = 0;  ///< retire when emit frontier passes this
  };
  struct EmittedBlock {
    std::size_t col0 = 0;
    core::Array2D data;
  };

  void process_window(const WindowSpec& w);
  void retire_latencies();

  IngestConfig cfg_;
  LiveVca vca_;
  WindowPlanner planner_;
  std::vector<std::string> member_paths_;
  std::vector<PendingLatency> pending_latency_;
  std::vector<EmittedBlock> blocks_;
  std::size_t windows_processed_ = 0;
  bool finished_ = false;
};

/// The margin (one-sided column dependency span) of the similarity
/// kernel: window_half + lag_half + kSimilarityAnchor - 1. A cell reads
/// data within window_half + lag_half of it, and its running sums start
/// at the anchor column at most B - 1 columns to its left; a cell this
/// far inside a window therefore has its anchor inside the window too,
/// and its value matches the offline run bit for bit. Emit regions stay
/// this far from interior window edges.
[[nodiscard]] std::size_t udf_margin_cols(
    const das::LocalSimilarityParams& p);

}  // namespace dassa::ingest
