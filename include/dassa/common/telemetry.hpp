// DASSA common: telemetry sampling and the pipeline health report.
//
// Spans (trace.hpp) answer "where did the time go" after a run;
// counters answer "how much work happened" in total. Neither answers
// the operator's question *during* a long HAEE campaign: is the
// pipeline still making progress, and at what rate? The TelemetrySampler
// closes that gap -- a background thread snapshots the metrics registry
// (every counter, gauge and histogram percentile) and the process's
// resource usage (RSS, peak RSS, user/sys CPU) into an in-memory
// timeline at a configurable period. The timeline exports as JSONL
// ("dassa.telemetry.v1", one typed record per line) and parses back
// through an in-tree reader with a validator strict enough to serve as
// the schema's executable spec.
//
// The same file model carries the post-run records: per-stage
// throughput, per-rank counter totals gathered over MiniMPI, cluster
// aggregates with imbalance ratios, and merged histograms.
// write_health_report() renders the whole file as the operator-facing
// summary das_health and `das_analyze --telemetry` print.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/metrics.hpp"
#include "dassa/common/sync.hpp"

namespace dassa::telemetry {

/// JSONL schema identifier written into every telemetry file's meta
/// record and required back by validate_telemetry_file().
inline constexpr const char* kSchemaVersion = "dassa.telemetry.v1";

/// Process resource usage at one instant. Peak RSS and CPU come from
/// getrusage(RUSAGE_SELF); current RSS from /proc/self/statm (0 where
/// unavailable).
struct ResourceUsage {
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t user_cpu_ns = 0;
  std::uint64_t sys_cpu_ns = 0;
};

[[nodiscard]] ResourceUsage sample_resources();

/// One timeline entry: the registry snapshot (metrics.hpp) plus the
/// sample's sequence number and the process's resource usage.
/// Histogram percentiles are folded into `gauges` as
/// "hist.<name>.p50_ns" / ".p95_ns" / ".p99_ns" / ".count" -- the JSONL
/// sample record carries no bucket arrays -- so `hists` stays empty.
struct Sample : MetricsSnapshot {
  std::uint64_t seq = 0;  ///< contiguous from 0 per timeline
  ResourceUsage res;
};

/// The one stall rule (das_health, das_top): zero counter progress
/// from `prev` to `cur` while work is in flight in `cur` -- spans open
/// (trace.open_spans) or requests queued (serve.queue.depth,
/// ingest.queue.depth). Progress excludes telemetry.samples and
/// stats.*, which the observers themselves advance. Both snapshots
/// must come from one process, `prev` first.
[[nodiscard]] bool stalled(const MetricsSnapshot& prev,
                           const MetricsSnapshot& cur);

struct SamplerConfig {
  std::chrono::milliseconds period{250};
  std::size_t max_samples = 1 << 14;  ///< timeline cap; extra ticks drop
};

/// Periodic sampler. start() launches one background thread; stop()
/// (or destruction) joins it. tick() takes one sample synchronously
/// and is the deterministic injection point the tests drive -- the
/// background loop calls exactly the same code.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(SamplerConfig cfg = {});
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const;

  /// Take one sample now (any thread; also the background loop body).
  void tick();

  /// Copy of the timeline so far, oldest first.
  [[nodiscard]] std::vector<Sample> timeline() const;

  /// Ticks discarded because the timeline hit max_samples.
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  void run_loop();

  SamplerConfig cfg_;
  // Serializes whole ticks (a manual tick() racing the background
  // loop's): the counter snapshot and the timeline append must be
  // atomic per sample or racing ticks can append in opposite order and
  // break the stream's monotone-counter invariant. Always acquired
  // before mu_; nothing else takes it, so no ordering hazard.
  Mutex tick_mu_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<Sample> samples_ DASSA_GUARDED_BY(mu_);
  std::uint64_t next_seq_ DASSA_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ DASSA_GUARDED_BY(mu_) = 0;
  // Joined outside mu_ in stop() (joining under the lock would deadlock
  // against run_loop's own locking); start/stop are single-owner calls.
  std::thread thread_;
  bool running_ DASSA_GUARDED_BY(mu_) = false;
  bool stop_requested_ DASSA_GUARDED_BY(mu_) = false;
};

// ---- telemetry file model (JSONL, one typed record per line) ---------

/// Post-run per-stage summary ("read", "halo", "compute", "write").
struct StageRecord {
  std::string name;
  double seconds = 0.0;
  std::uint64_t bytes = 0;  ///< bytes moved by the stage (0 if n/a)
  std::uint64_t rows = 0;   ///< rows retired by the stage (0 if n/a)
};

/// One rank's counter totals, gathered over MiniMPI.
struct RankRecord {
  int rank = 0;
  std::map<std::string, std::uint64_t> counters;
};

/// Cluster-wide aggregate of one counter across ranks. `imbalance` is
/// max / mean -- 1.0 means perfectly balanced, 2.4 means the busiest
/// rank did 2.4x the average.
struct AggRecord {
  std::string counter;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  int min_rank = 0;
  int max_rank = 0;
  double imbalance = 1.0;
};

/// Cluster-merged latency histogram with precomputed percentiles.
struct HistRecord {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  std::array<std::uint64_t, 64> buckets{};
};

/// Everything a telemetry JSONL file carries.
struct TelemetryFile {
  std::map<std::string, std::string> meta;  ///< includes "schema"
  std::vector<Sample> samples;
  std::vector<StageRecord> stages;
  std::vector<RankRecord> ranks;
  std::vector<AggRecord> aggs;
  std::vector<HistRecord> hists;
};

/// Serialize as JSONL. Writes the meta record first (stamping the
/// schema version), then samples, stages, ranks, aggs, hists.
void write_telemetry_file(std::ostream& os, const TelemetryFile& file);

/// Parse text produced by write_telemetry_file. Throws
/// dassa::FormatError on malformed JSON, an unknown record type, or a
/// missing required field.
[[nodiscard]] TelemetryFile parse_telemetry_jsonl(const std::string& text);

/// Schema validation with teeth. Throws dassa::FormatError describing
/// the first violation of: schema version present and supported;
/// sample seq contiguous from 0 with non-decreasing wall clock;
/// counters monotonic across samples; histogram count equal to the
/// bucket sum; every aggregate's sum/min/max exactly consistent with
/// the per-rank records.
void validate_telemetry_file(const TelemetryFile& file);

/// Render the operator-facing health report: stage throughput and time
/// breakdown, resource ceiling, cache/codec efficiency, per-rank
/// imbalance table, merged percentiles, and a warning for every
/// sampler interval that is stalled().
void write_health_report(std::ostream& os, const TelemetryFile& file);

}  // namespace dassa::telemetry
