// The DASSA end-to-end benchmark (README.md in this directory).
//
// One binary, four workloads over the library's public API. Each
// workload generates its inputs from the seed, times its set-up, then
// repeats its operation for the requested number of seconds, checking
// every output. With tracing off it reports the end-to-end metrics;
// with tracing on it runs the same operations once untraced and once
// traced and reports the per-layer ledger built from the spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dassa/common/trace.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/das/synth.hpp"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `failed` counts failed or refused operations
/// plus failed correctness checks; `attempted` counts operations.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

Report run_similarity(const Options& opt);
Report run_interferometry(const Options& opt);
Report run_serve(const Options& opt);
Report run_ingest(const Options& opt);

// ---- shared helpers (ledger.cpp) --------------------------------------

/// Scratch directory `.bench_work/<name>` under the working directory,
/// emptied on creation and removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& name);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// splitmix64 stream: the only source of randomness, so one seed gives
/// the same inputs and the same request schedule on every host.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  std::size_t pick(std::size_t lo, std::size_t hi);

 private:
  std::uint64_t state_;
};

/// Where the seeded scene put its earthquake, so the similarity check
/// can look for it.
struct SceneTruth {
  double quake_arrival_s = 0.0;  ///< first arrival (s), at the epicentre
};

/// The paper's Fig. 1b event mix with seeded timing and geometry: two
/// vehicles crossing the whole array in opposite directions, one
/// earthquake, one persistent vibration, over ambient noise.
dassa::das::SynthDas make_scene(std::uint64_t seed, std::size_t channels,
                                double sampling_hz, double record_s,
                                SceneTruth* truth = nullptr);

/// The paper's hybrid layout sized to a 4-core host: 2 ranks x 2
/// threads, communication-avoiding reads.
dassa::core::EngineConfig engine_2x2();

/// Median and linear-interpolated quantile of unsorted samples.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Process peak resident set (getrusage), MiB.
double peak_rss_mb();

/// How fast the host runs right now. The benchmark shares its cores
/// with other tenants, whose load moves every wall time by up to a
/// fifth over minutes. Before each timed operation the benchmark times
/// a fixed calibration loop (4 threads, each 2e7 dependent multiply-
/// adds, the same 4-way parallelism as the 2 x 2 engine). The end-to-
/// end times are multiplied, and rates divided, by kNominal_s over the
/// run's median calibration time: they read as on a host where the
/// loop takes kNominal_s. The loop does not touch the program under
/// test, so a change to the program moves the scaled figures as much
/// as the raw ones.
class HostSpeed {
 public:
  static constexpr double kNominal_s = 0.05;
  void sample();
  [[nodiscard]] double median_s() const;
  [[nodiscard]] double factor() const;
  [[nodiscard]] std::size_t samples() const { return walls_.size(); }

 private:
  std::vector<double> walls_;
};

HostSpeed& host_speed();

/// Time one run of `setup`, after a host-speed sample; wall seconds.
template <class F>
double time_setup(F&& setup) {
  host_speed().sample();
  const auto t0 = std::chrono::steady_clock::now();
  setup();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Global counter deltas between construction and stop().
class CounterDelta {
 public:
  CounterDelta();
  void stop();
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> before_;
  std::map<std::string, std::uint64_t> after_;
};

/// Per-span-name totals over the traced operations. Self time is a
/// span's duration minus the time its child spans on the same thread
/// cover. Rank-max is, per operation, the largest per-rank sum of the
/// span (the critical path over ranks), summed over operations.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  double rank_max_s = 0.0;
  double imbalance_sum = 0.0;  ///< per operation: max / mean over ranks
  std::uint64_t count = 0;
  std::uint64_t ops = 0;       ///< operations in which the span ran
};

class Ledger {
 public:
  /// Also track `members` summed per rank as one span named `name`
  /// (only its rank-max is meaningful): e.g. a rank's engine stages.
  void group(const std::string& name, std::vector<std::string> members);

  /// Fold in the spans of one traced operation (or of one traced phase
  /// of many operations, for the serve workload).
  void add_op(const std::vector<dassa::trace::TraceEvent>& events);

  /// Sums over everything added (0 for spans that never ran).
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] double rank_max_s(const std::string& name) const;
  /// Mean over the added operations in which the span ran.
  [[nodiscard]] double imbalance(const std::string& name) const;

  /// The per-layer table: every span, divided by `ops` operations.
  void print(std::ostream& os, double ops) const;

 private:
  [[nodiscard]] const SpanTotals* find(const std::string& name) const;

  std::map<std::string, SpanTotals> spans_;
  std::map<std::string, std::string> group_of_;  ///< member -> group
};

/// Run `op` with tracing on and return its spans (the trace buffers
/// are cleared first).
template <class F>
std::vector<dassa::trace::TraceEvent> traced(F&& op) {
  dassa::trace::clear();
  dassa::trace::set_enabled(true);
  try {
    op();
  } catch (...) {
    dassa::trace::set_enabled(false);
    throw;
  }
  dassa::trace::set_enabled(false);
  return dassa::trace::collect();
}

}  // namespace bench
