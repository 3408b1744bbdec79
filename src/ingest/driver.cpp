#include "dassa/ingest/driver.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/trace.hpp"

namespace dassa::ingest {

std::size_t udf_margin_cols(const das::LocalSimilarityParams& p) {
  constexpr std::size_t kAnchorReach = das::kSimilarityAnchor - 1;
  DASSA_CHECK(p.lag_half <= std::numeric_limits<std::size_t>::max() -
                                kAnchorReach &&
                  p.window_half <= std::numeric_limits<std::size_t>::max() -
                                       kAnchorReach - p.lag_half,
              "similarity window + lag overflows");
  return p.window_half + p.lag_half + kAnchorReach;
}

IngestDriver::IngestDriver(IngestConfig cfg)
    : cfg_(std::move(cfg)),
      vca_(cfg_.vca_index_path),
      planner_(cfg_.window_files, cfg_.overlap_files,
               udf_margin_cols(cfg_.similarity)) {
  DASSA_CHECK(cfg_.engine.output_path.empty(),
              "the ingest driver writes its own output; leave "
              "EngineConfig::output_path empty");
  cfg_.engine.gather_output = true;
}

void IngestDriver::add_file(const SpoolFile& file) {
  DASSA_CHECK(!finished_, "add_file after finish()");
  vca_.append(file.path);  // validates header + channel count
  const auto snap = vca_.snapshot();
  member_paths_.push_back(file.path);
  planner_.add_file(snap->members().back().shape.cols);
  pending_latency_.push_back(
      PendingLatency{file.admit_ns, planner_.total_cols()});
  while (auto w = planner_.next_ready()) process_window(*w);
}

IngestResult IngestDriver::finish() {
  DASSA_CHECK(!finished_, "finish() called twice");
  if (auto w = planner_.finish()) process_window(*w);
  finished_ = true;

  IngestResult r;
  r.files = planner_.files_added();
  r.windows = windows_processed_;
  if (blocks_.empty()) return r;

  const auto snap = vca_.snapshot();
  r.global_meta = snap->global_meta();
  const std::size_t rows = snap->shape().rows;
  const std::size_t total = planner_.emitted_cols();
  r.similarity = core::Array2D({rows, total});
  std::size_t expect = 0;
  for (const EmittedBlock& b : blocks_) {
    DASSA_CHECK(b.col0 == expect, "emitted blocks do not tile the stream");
    for (std::size_t ch = 0; ch < rows; ++ch) {
      std::copy_n(b.data.row(ch).data(), b.data.shape.cols,
                  r.similarity.row(ch).data() + b.col0);
    }
    expect = b.col0 + b.data.shape.cols;
  }
  DASSA_CHECK(expect == total, "emitted blocks do not cover the stream");
  blocks_.clear();

  if (cfg_.detect) r.events = das::detect_events(r.similarity, cfg_.detector);
  return r;
}

void IngestDriver::process_window(const WindowSpec& w) {
  DASSA_CHECK(w.first_file + w.file_count <= member_paths_.size(),
              "window extends past the ingested files");
  DASSA_TRACE_SPAN("ingest", "window");
  const std::vector<std::string> files(
      member_paths_.begin() +
          static_cast<std::ptrdiff_t>(w.first_file),
      member_paths_.begin() +
          static_cast<std::ptrdiff_t>(w.first_file + w.file_count));
  const io::Vca sub = io::Vca::build(files);
  core::EngineReport report =
      das::local_similarity_distributed(cfg_.engine, sub, cfg_.similarity,
                                        w.start_col);

  const std::size_t rows = report.output.shape.rows;
  const std::size_t lo = w.emit_lo - w.start_col;  // window-local
  const std::size_t cols = w.emit_hi - w.emit_lo;
  EmittedBlock block;
  block.col0 = w.emit_lo;
  block.data = core::Array2D({rows, cols});
  for (std::size_t ch = 0; ch < rows; ++ch) {
    std::copy_n(report.output.row(ch).data() + lo, cols,
                block.data.row(ch).data());
  }

  if (cfg_.detect) {
    std::vector<das::DetectedEvent> events =
        das::detect_events(block.data, cfg_.detector);
    for (das::DetectedEvent& e : events) {
      e.time_lo += block.col0;  // window-local -> global stream columns
      e.time_hi += block.col0;
    }
    global_counters().add(counters::kIngestEvents, events.size());
    if (on_events && !events.empty()) on_events(events);
  }

  blocks_.push_back(std::move(block));
  ++windows_processed_;
  global_counters().add(counters::kIngestWindows);
  global_counters().add(counters::kIngestColsEmitted, cols);
  DASSA_SLOG(kInfo, "ingest.window")
      .field("index", w.index)
      .field("files", w.file_count)
      .field("emit_lo", w.emit_lo)
      .field("emit_hi", w.emit_hi)
      .field("final", w.final);
  retire_latencies();
}

void IngestDriver::retire_latencies() {
  const std::size_t frontier = planner_.emitted_cols();
  const std::uint64_t now = trace::detail::now_ns();
  auto& hist = global_metrics().histogram("ingest.file_to_detection");
  auto it = pending_latency_.begin();
  while (it != pending_latency_.end()) {
    if (it->end_col <= frontier) {
      hist.record_ns(now >= it->admit_ns ? now - it->admit_ns : 0);
      it = pending_latency_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dassa::ingest
