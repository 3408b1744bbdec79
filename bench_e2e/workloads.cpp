// The four workloads of the end-to-end benchmark. README.md in this
// directory maps every metric to its layer, the end-to-end metric it
// moves and the workload that shows it.
#include <algorithm>
#include <barrier>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/das/events.hpp"
#include "dassa/das/interferometry.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/search.hpp"
#include "dassa/dsp/stats.hpp"
#include "dassa/ingest/driver.hpp"
#include "dassa/serve/client.hpp"
#include "dassa/serve/server.hpp"

namespace bench {
namespace {

using namespace dassa;
using Clock = std::chrono::steady_clock;

/// Set-up is timed kSetupReps times: once before the measured phase,
/// whose operations use its output, and the rest after it, so the first
/// operation sees the footprint of a single set-up, as one das_analyze
/// run does. setup_s is the median.
constexpr int kSetupReps = 5;
constexpr const char* kRecordStart = "170728224510";
constexpr double kRate = 500.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Render and write an acquisition of `files` files. A codec chain
/// makes chunked DASH5 v3 files with ADC-quantised samples (so they
/// compress like field recordings); without one, plain v2 files.
std::vector<std::string> write_files(const das::SynthDas& scene,
                                     const std::string& dir,
                                     std::size_t files,
                                     double seconds_per_file,
                                     io::ChunkShape chunk = {},
                                     const std::string& codec = {}) {
  std::filesystem::remove_all(dir);
  das::AcquisitionSpec spec;
  spec.dir = dir;
  spec.start = das::Timestamp::parse(kRecordStart);
  spec.file_count = files;
  spec.seconds_per_file = seconds_per_file;
  if (!codec.empty()) {
    spec.chunk = chunk;
    spec.codec = io::CodecSpec::parse(codec);
    spec.quantize_lsb = 1.0 / 64.0;
  }
  return das::write_acquisition(scene, spec);
}

// ---- timed phases ------------------------------------------------------

/// One operation: its wall time (checks excluded), the input cells it
/// analysed, the user-visible units it completed (one call, or the
/// files of an ingest replay), and whether its output passed the checks.
struct OpResult {
  double wall_s = 0.0;
  double cells = 0.0;
  double units = 1.0;
  bool ok = true;
};

struct Phase {
  std::vector<double> walls;
  std::vector<double> cell_rates;  ///< per operation, cells/s
  std::vector<double> unit_rates;  ///< per operation, units/s
  /// Peak RSS once set-up and the first operation are done: what a
  /// process that runs the operation once (das_analyze, das_ingest
  /// --once) holds. Later repetitions only add allocator retention.
  double first_op_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Repeat `op` until `seconds` have passed and at least `min_ops` ran.
template <class Op>
Phase run_phase(double seconds, std::uint64_t min_ops, Op&& op) {
  Phase ph;
  const auto t0 = Clock::now();
  while (ph.attempted < min_ops || since(t0) < seconds) {
    host_speed().sample();
    ++ph.attempted;
    try {
      const OpResult r = op();
      ph.walls.push_back(r.wall_s);
      ph.cell_rates.push_back(r.cells / r.wall_s);
      ph.unit_rates.push_back(r.units / r.wall_s);
      if (!r.ok) ++ph.failed;
    } catch (const std::exception& e) {
      ++ph.failed;
      std::cerr << "operation failed: " << e.what() << "\n";
    }
    if (ph.attempted == 1) ph.first_op_rss_mb = peak_rss_mb();
  }
  return ph;
}

template <class F>
double setup_median(double first_s, F&& setup) {
  std::vector<double> walls{first_s};
  while (walls.size() < kSetupReps) walls.push_back(time_setup(setup));
  return median(std::move(walls));
}

/// A latency sample's median and tail: the highest quantile, at most
/// p99, that keeps ten samples beyond it.
struct Latency {
  double p50_s = 0.0;
  double tail_s = 0.0;
  double tail_q = 0.5;
  std::size_t samples = 0;
};

Latency latency_of(const std::vector<double>& v) {
  Latency l;
  l.samples = v.size();
  l.tail_q =
      std::clamp(1.0 - 10.0 / static_cast<double>(v.size()), 0.5, 0.99);
  l.p50_s = median(v);
  l.tail_s = quantile(v, l.tail_q);
  return l;
}

/// The end-to-end metrics. Rates and latencies are medians over
/// operations (or over one-second slices, for serve), so a burst of host
/// noise moves them less than a mean would. With `scaled`, times and
/// rates are scaled to the nominal host speed (HostSpeed); the raw
/// values are printed either way.
void add_end_to_end(Report& rep, bool scaled, double setup_s,
                    double cells_per_s, const Latency& lat,
                    double ops_per_s, double rss_mb) {
  const double measured_f = host_speed().factor();
  const double f = scaled ? measured_f : 1.0;
  const double raw[5] = {setup_s, cells_per_s, lat.p50_s * 1e3,
                         lat.tail_s * 1e3, ops_per_s};
  rep.add("setup_s", raw[0] * f, "s");
  rep.add("cells_per_s", raw[1] / f, "cells/s");
  rep.add("latency_p50_ms", raw[2] * f, "ms");
  rep.add("latency_tail_ms", raw[3] * f, "ms");
  rep.add("ops_per_s", raw[4] / f, "1/s");
  rep.add("peak_rss_mb", rss_mb, "MB");
  std::cout << "latency samples: " << lat.samples << ", tail = p"
            << lat.tail_q * 100.0 << "\nhost speed: factor " << measured_f
            << " over " << host_speed().samples() << " calibrations"
            << (scaled ? "" : " (not applied)") << "; unscaled setup_s "
            << raw[0]
            << ", cells_per_s " << raw[1] << ", latency_p50_ms " << raw[2]
            << ", latency_tail_ms " << raw[3] << ", ops_per_s " << raw[4]
            << "\n";
}

// ---- the per-layer metrics ------------------------------------------------

struct ServeLayers {
  double p50_us[4] = {};  ///< queue_wait, coalesce, decode, write
  double p99_us[4] = {};
  double unattributed_p50_us = 0.0;
  double requests_per_group = 0.0;
};

struct IngestLayers {
  double engine_s = 0.0;  ///< phase totals
  double window_overhead_s = 0.0;
  double republish_s = 0.0;
  double recompute_ratio = 0.0;
};

/// Everything the per-layer metrics are computed from. Times and counts
/// are totals over the traced phase; `ops` divides them per operation.
struct Layers {
  const Ledger* ledger = nullptr;
  const CounterDelta* counters = nullptr;
  double ops = 1.0;
  double input_mb_per_op = 0.0;  ///< input array as doubles
  double engine_s = 0.0;         ///< wall of the engine calls
  double events = 0.0;
  double plan_misses = 0.0;
  double overhead_ratio = 0.0;
  double wall_1x1_s = 0.0;
  double wall_2x2_s = 0.0;
  ServeLayers serve;
  IngestLayers ingest;
};

/// Emit every per-layer metric; layers a workload does not use read 0.
void add_layer_metrics(Report& rep, const Layers& in) {
  const Ledger& g = *in.ledger;
  const CounterDelta& c = *in.counters;
  const auto per = [&](double total) { return total / in.ops; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const double read_s = g.rank_max_s("haee.read");
  const double apply_s = g.rank_max_s("haee.apply");
  const double write_s =
      g.rank_max_s("haee.write") + g.rank_max_s("haee.gather");
  const double stages_s = g.rank_max_s("haee.stages");
  rep.add("io.read_slab_s", per(g.total_s("io.read_slab")), "s/op");
  rep.add("io.read_mb_per_s", ratio(in.input_mb_per_op * in.ops, read_s),
          "MB/s");
  rep.add("io.codec.decode_s", per(c.get(counters::kIoCodecDecodeNs) * 1e-9),
          "s/op");
  rep.add("io.codec.decode_calls", per(c.get(counters::kIoCodecDecodeCalls)),
          "count/op");
  rep.add("io.read_calls", per(c.get(counters::kIoReadCalls)),
          "count/op");
  const double hits = c.get(counters::kIoCacheHits);
  rep.add("io.cache.hit_ratio",
          ratio(hits, hits + c.get(counters::kIoCacheMisses)), "ratio");

  rep.add("par_read.local_read_s", per(g.rank_max_s("par_read.local_read")),
          "s/op");
  rep.add("par_read.exchange_s", per(g.rank_max_s("par_read.exchange")), "s/op");
  rep.add("par_read.assemble_s", per(g.rank_max_s("par_read.assemble")), "s/op");
  rep.add("par_read.self_s", per(g.self_s("par_read.comm_avoiding")), "s/op");
  rep.add("mpi.alltoall_bytes", per(c.get(counters::kMpiAlltoallBytes)),
          "bytes/op");
  rep.add("mpi.bytes_sent", per(c.get(counters::kMpiP2pBytes)), "bytes/op");

  rep.add("haee.read_s", per(read_s), "s/op");
  rep.add("haee.read_self_s", per(g.self_s("haee.read")), "s/op");
  rep.add("haee.ghost_s", per(g.rank_max_s("haee.ghost_exchange")), "s/op");
  rep.add("haee.apply_s", per(apply_s), "s/op");
  rep.add("haee.write_s", per(write_s), "s/op");
  rep.add("haee.unattributed_s",
          in.engine_s > 0.0 ? per(in.engine_s - stages_s) : 0.0,
          "s/op");
  rep.add("haee.rank_imbalance", g.imbalance("haee.apply"), "ratio");
  rep.add("haee.speedup", ratio(in.wall_1x1_s, in.wall_2x2_s), "ratio");
  rep.add("haee.wall_1x1_s", in.wall_1x1_s, "s/op");
  rep.add("haee.wall_2x2_s", in.wall_1x1_s > 0.0 ? in.wall_2x2_s : 0.0, "s/op");

  rep.add("dsp.rfft_s",
          per(g.total_s("dsp.rfft") + g.total_s("dsp.rfft_half") +
              g.total_s("dsp.irfft_half") + g.total_s("dsp.rfft_half_batch")),
          "s/op");
  rep.add("dsp.filtfilt_s", per(g.total_s("dsp.filtfilt")), "s/op");
  rep.add("dsp.resample_s", per(g.total_s("dsp.resample")), "s/op");
  rep.add("dsp.fft.plan_misses", in.plan_misses, "count");

  rep.add("das.similarity_ns_per_cell",
          ratio(g.total_s("haee.apply_cells_chunk") * 1e9,
                c.get(counters::kTelemetryCellsProcessed)),
          "ns/cell");
  rep.add("das.interferometry_us_per_row",
          ratio(g.total_s("haee.apply_rows_chunk") * 1e6,
                c.get(counters::kTelemetryRowsProcessed)),
          "us/row");
  rep.add("das.events_detected", per(in.events), "count/op");

  static constexpr const char* kStages[4] = {"queue_wait", "coalesce",
                                             "decode", "write"};
  for (int i = 0; i < 4; ++i) {
    const std::string stem = std::string("serve.lat.") + kStages[i];
    rep.add(stem + "_p50_us", in.serve.p50_us[i], "us/req");
    rep.add(stem + "_p99_us", in.serve.p99_us[i], "us/req");
  }
  rep.add("serve.unattributed_p50_us", in.serve.unattributed_p50_us,
          "us/req");
  rep.add("serve.requests_per_group", in.serve.requests_per_group, "ratio");

  rep.add("ingest.engine_s", per(in.ingest.engine_s), "s/op");
  rep.add("ingest.window_overhead_s", per(in.ingest.window_overhead_s), "s/op");
  rep.add("ingest.republish_s", per(in.ingest.republish_s), "s/op");
  rep.add("ingest.recompute_ratio", in.ingest.recompute_ratio, "ratio");

  rep.add("host.calibration_ms", host_speed().median_s() * 1e3, "ms");
  rep.add("trace.overhead_ratio", in.overhead_ratio, "ratio");
  rep.add("trace.spans_dropped",
          static_cast<double>(trace::dropped_spans()), "count");
}

/// The analysis workloads and ingest share one shape: an untraced phase
/// gives the end-to-end metrics; with tracing, half the time runs
/// untraced and half traced, and the ledger comes from the traced half.
/// `events` is the op's running event count; `finish` fills the
/// workload's own per-layer inputs from the traced phase.
template <class Setup, class Op, class Finish>
Report op_workload(const Options& opt, Setup&& setup, Op&& op,
                   double& events, std::vector<double>* latencies,
                   Finish&& finish) {
  Report rep;
  const double first_setup_s = time_setup(setup);
  if (!opt.trace) {
    const Phase ph = run_phase(opt.seconds, 3, op);
    const double setup_s = setup_median(first_setup_s, setup);
    std::cout << "operation walls (s):";
    for (double w : ph.walls) std::cout << " " << w;
    std::cout << "\n";
    rep.attempted = ph.attempted;
    rep.failed = ph.failed;
    add_end_to_end(rep, true, setup_s, median(ph.cell_rates),
                   latency_of(latencies != nullptr ? *latencies : ph.walls),
                   median(ph.unit_rates), ph.first_op_rss_mb);
    return rep;
  }

  const Phase plain = run_phase(opt.seconds / 2, 2, op);
  Ledger ledger;
  ledger.group("haee.stages",
               {"haee.read", "haee.apply", "haee.write", "haee.gather"});
  CounterDelta deltas;
  const std::uint64_t misses0 = dsp::dsp_stats().fft_plan_misses;
  events = 0.0;
  const Phase traced_ph = run_phase(opt.seconds / 2, 2, [&] {
    OpResult r;
    ledger.add_op(traced([&] { r = op(); }));
    return r;
  });
  deltas.stop();
  rep.attempted = plain.attempted + traced_ph.attempted;
  rep.failed = plain.failed + traced_ph.failed;

  Layers in;
  in.ledger = &ledger;
  in.counters = &deltas;
  in.ops = static_cast<double>(std::max<std::size_t>(traced_ph.walls.size(), 1));
  in.events = events;
  in.plan_misses =
      static_cast<double>(dsp::dsp_stats().fft_plan_misses - misses0);
  in.overhead_ratio = mean(traced_ph.walls) / mean(plain.walls) - 1.0;
  in.wall_2x2_s = mean(plain.walls);
  finish(in, ledger, deltas);
  ledger.print(std::cout, in.ops);
  add_layer_metrics(rep, in);
  return rep;
}

// ---- similarity -------------------------------------------------------------

/// Alg. 2 output check: the detector's catalog is the scene. One
/// earthquake at its arrival time, one persistent source, and the two
/// vehicles as tracks of opposite slope (the persistent source's band
/// cuts each track in two), nothing else.
bool similarity_ok(const core::Array2D& out, Shape2D expect_shape,
                   const std::vector<das::DetectedEvent>& events,
                   const SceneTruth& truth) {
  if (out.shape != expect_shape) return false;
  const double arrival = truth.quake_arrival_s * kRate;
  std::size_t quakes = 0;
  std::size_t persistent = 0;
  std::size_t up = 0;
  std::size_t down = 0;
  for (const das::DetectedEvent& e : events) {
    switch (e.type) {
      case das::EventClass::kEarthquake:
        if (static_cast<double>(e.time_lo) > arrival + 2.0 * kRate ||
            static_cast<double>(e.time_hi) < arrival) {
          return false;
        }
        ++quakes;
        break;
      case das::EventClass::kPersistent:
        ++persistent;
        break;
      case das::EventClass::kVehicle:
        ++(e.slope_channels_per_sample > 0.0 ? up : down);
        break;
      case das::EventClass::kUnknown:
        return false;
    }
  }
  return quakes == 1 && persistent == 1 && up >= 1 && down >= 1;
}

}  // namespace

Report run_similarity(const Options& opt) {
  constexpr std::size_t kChannels = 64;
  constexpr std::size_t kFiles = 4;
  constexpr double kSecondsPerFile = 15.0;
  WorkDir dir("similarity");
  const std::string vca_path = dir.file("input.vca");
  SceneTruth truth;
  const auto setup = [&] {
    const das::SynthDas scene = make_scene(
        opt.seed, kChannels, kRate, kFiles * kSecondsPerFile, &truth);
    io::Vca::build(write_files(scene, dir.file("raw"), kFiles,
                               kSecondsPerFile))
        .save(vca_path);
  };

  const das::LocalSimilarityParams params;  // M = 25, L = 10, K = 1
  core::EngineConfig cfg = engine_2x2();
  cfg.output_path = dir.file("similarity.dh5");
  const Shape2D shape{kChannels, static_cast<std::size_t>(
                                     kRate * kFiles * kSecondsPerFile)};
  das::DetectorParams detector;
  detector.min_cells = 4000;  // drop the earthquake coda's fragments
  double events = 0.0;
  const auto op = [&]() -> OpResult {
    const auto t0 = Clock::now();
    io::Vca vca;
    {
      DASSA_TRACE_SPAN("bench", "bench.vca_load");
      vca = io::Vca::load(vca_path);
    }
    core::EngineReport report;
    {
      DASSA_TRACE_SPAN("bench", "bench.engine");
      report = das::local_similarity_distributed(cfg, vca, params);
    }
    const double wall = since(t0);
    const std::vector<das::DetectedEvent> found =
        das::detect_events(report.output, detector);
    events += static_cast<double>(found.size());
    return {wall, static_cast<double>(shape.size()), 1.0,
            similarity_ok(report.output, shape, found, truth)};
  };
  return op_workload(opt, setup, op, events, nullptr,
                     [&](Layers& in, const Ledger& ledger, const CounterDelta&) {
                       in.input_mb_per_op =
                           static_cast<double>(shape.size()) * 8e-6;
                       in.engine_s = ledger.total_s("bench.engine");
                     });
}

// ---- interferometry ---------------------------------------------------------

namespace {

/// Alg. 3 output check against the single-node reference.
constexpr double kInterferometryTolerance = 1e-9;

bool matches(const core::Array2D& got, const core::Array2D& want) {
  if (got.shape != want.shape) return false;
  for (std::size_t i = 0; i < want.data.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want.data[i]));
    if (!(std::abs(got.data[i] - want.data[i]) <=
          kInterferometryTolerance * scale)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report run_interferometry(const Options& opt) {
  constexpr std::size_t kChannels = 128;
  constexpr std::size_t kFiles = 4;
  constexpr double kSecondsPerFile = 60.0;
  WorkDir dir("interferometry");
  const std::string vca_path = dir.file("input.vca");
  const das::InterferometryParams params;  // 1-45 Hz, order 3, 500 -> 250 Hz
  core::Array2D reference;
  const auto setup = [&] {
    const das::SynthDas scene =
        make_scene(opt.seed, kChannels, kRate, kFiles * kSecondsPerFile);
    io::Vca::build(write_files(scene, dir.file("raw"), kFiles,
                               kSecondsPerFile, io::ChunkShape{32, 1024},
                               "shuffle+lz"))
        .save(vca_path);
    const io::Vca vca = io::Vca::load(vca_path);
    const core::Array2D data(vca.shape(),
                             vca.read_slab(Slab2D::whole(vca.shape())));
    reference = das::interferometry_single_node(data, params, 4);
  };

  const double cells = static_cast<double>(kChannels) * kRate *
                       static_cast<double>(kFiles) * kSecondsPerFile;
  double events = 0.0;  // Alg. 3 detects nothing; kept for the ledger
  // The archive is loaded fresh by every call, so the chunk cache is
  // cold, as in a das_analyze run.
  const auto run = [&](const core::EngineConfig& cfg) -> OpResult {
    const auto t0 = Clock::now();
    io::Vca vca;
    {
      DASSA_TRACE_SPAN("bench", "bench.vca_load");
      vca = io::Vca::load(vca_path);
    }
    core::EngineReport report;
    {
      DASSA_TRACE_SPAN("bench", "bench.engine");
      report = das::interferometry_distributed(cfg, vca, params);
    }
    const double wall = since(t0);
    return {wall, cells, 1.0, matches(report.output, reference)};
  };
  const core::EngineConfig cfg = engine_2x2();
  return op_workload(
      opt, setup, [&] { return run(cfg); }, events, nullptr,
      [&](Layers& in, const Ledger& ledger, const CounterDelta&) {
        in.input_mb_per_op = cells * 8e-6;
        in.engine_s = ledger.total_s("bench.engine");
        // The plain single-thread baseline for haee.speedup.
        core::EngineConfig one = cfg;
        one.nodes = 1;
        one.cores_per_node = 1;
        const OpResult base = run(one);
        in.wall_1x1_s = base.wall_s;
        std::cout << "interferometry 1x1 wall " << base.wall_s << " s, 2x2 "
                  << in.wall_2x2_s << " s"
                  << (base.ok ? "" : " (1x1 output MISMATCH)") << "\n";
      });
}

// ---- ingest -------------------------------------------------------------------

Report run_ingest(const Options& opt) {
  constexpr std::size_t kChannels = 32;
  constexpr std::size_t kFiles = 24;
  constexpr double kSecondsPerFile = 2.0;
  WorkDir dir("ingest");
  ingest::IngestConfig icfg;
  icfg.window_files = 3;
  icfg.overlap_files = 1;
  icfg.similarity.window_half = 10;
  icfg.similarity.lag_half = 5;
  icfg.detect = true;
  icfg.engine = engine_2x2();
  icfg.vca_index_path = dir.file("live.vca");

  std::vector<std::string> files;
  core::Array2D reference;
  const auto setup = [&] {
    const das::SynthDas scene =
        make_scene(opt.seed, kChannels, kRate, kFiles * kSecondsPerFile);
    files = write_files(scene, dir.file("spool"), kFiles, kSecondsPerFile);
    reference = das::local_similarity_distributed(
                    icfg.engine, io::Vca::build(files), icfg.similarity)
                    .output;
  };

  const double cells = static_cast<double>(kChannels) * kRate *
                       static_cast<double>(kFiles) * kSecondsPerFile;
  LatencyHistogram& hist =
      global_metrics().histogram("ingest.file_to_detection");
  std::vector<double> latencies;
  double events = 0.0;

  // One replay: every file admitted as soon as the driver takes it.
  // The driver records each file's admission -> detection latency into
  // ingest.file_to_detection when its window is emitted; the files a
  // call retires are the oldest pending ones and share one emit time,
  // so the histogram's count and total deltas give each latency exactly.
  const auto op = [&]() -> OpResult {
    ingest::IngestDriver driver(icfg);
    std::vector<std::uint64_t> pending;
    const auto retire = [&](const HistogramSnapshot& before) {
      const HistogramSnapshot after = hist.snapshot();
      const std::uint64_t n = after.count - before.count;
      if (n == 0 || n > pending.size()) return;
      double admit_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        admit_sum += static_cast<double>(pending[i]);
      }
      const double emit_ns =
          (static_cast<double>(after.total_ns - before.total_ns) +
           admit_sum) /
          static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) {
        latencies.push_back((emit_ns - static_cast<double>(pending[i])) *
                            1e-9);
      }
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(n));
    };
    const auto t0 = Clock::now();
    for (const std::string& path : files) {
      const ingest::SpoolFile file{path, trace::detail::now_ns()};
      pending.push_back(file.admit_ns);
      const HistogramSnapshot before = hist.snapshot();
      {
        DASSA_TRACE_SPAN("bench", "bench.add_file");
        driver.add_file(file);
      }
      retire(before);
    }
    const HistogramSnapshot before = hist.snapshot();
    ingest::IngestResult result;
    {
      DASSA_TRACE_SPAN("bench", "bench.finish");
      result = driver.finish();
    }
    retire(before);
    const double wall = since(t0);
    events += static_cast<double>(result.events.size());
    return {wall, cells, static_cast<double>(files.size()),
            result.files == files.size() && pending.empty() &&
                result.similarity == reference};
  };
  return op_workload(
      opt, setup, op, events, &latencies,
      [&](Layers& in, const Ledger& ledger, const CounterDelta& deltas) {
        in.input_mb_per_op = cells * 8e-6;
        // Engine wall per window: the slowest rank's mpi.rank span.
        in.engine_s = ledger.rank_max_s("mpi.rank");
        in.ingest.engine_s = in.engine_s;
        in.ingest.window_overhead_s = ledger.total_s("window") - in.engine_s;
        in.ingest.republish_s = ledger.self_s("bench.add_file");
        in.ingest.recompute_ratio =
            deltas.get(counters::kTelemetryCellsProcessed) /
            (static_cast<double>(kChannels) *
             deltas.get(counters::kIngestColsEmitted));
      });
}

// ---- serve ----------------------------------------------------------------------

namespace {

/// One time-addressed request and the payload a direct read returns.
struct Window {
  std::int64_t begin_s = 0;
  std::int64_t end_s = 0;
  Slab2D slab;              ///< as the server resolved it
  std::vector<double> expected;
};

/// `count` windows over every channel inside [lo_s, hi_s), as many of
/// each length 1, 2, 3 and 4 s (so every seed asks for the same mix of
/// sizes), each at a seeded start. Every request selects all channels:
/// coalescing requests whose channel bands differ can build a union
/// that misses a member's rows (serve::coalesce), which ends the server.
std::vector<Window> make_windows(Rng& rng, std::size_t count,
                                 std::int64_t lo_s, std::int64_t hi_s) {
  std::vector<Window> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    Window& w = out[i];
    const auto len = static_cast<std::int64_t>(1 + i % 4);
    w.begin_s = lo_s + static_cast<std::int64_t>(rng.pick(
                           0, static_cast<std::size_t>(hi_s - lo_s - len)));
    w.end_s = w.begin_s + len;
  }
  return out;
}

bool same_slab(const Slab2D& a, const Slab2D& b) {
  return a.row_off == b.row_off && a.col_off == b.col_off &&
         a.row_cnt == b.row_cnt && a.col_cnt == b.col_cnt;
}

struct Tally {
  std::vector<double> rtts;
  double cells = 0.0;
  /// Completion rates and round-trip quantiles of each one-second slice.
  std::vector<double> requests_per_s;
  std::vector<double> cells_per_s;
  std::vector<double> p50_s;
  std::vector<double> p99_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

constexpr double kHotShare = 0.8;

/// Closed loop: one client sends its next request when the previous
/// reply has arrived and been checked, for `seconds`.
Tally drive(serve::Client& client, const std::vector<Window>& hot,
            const std::vector<Window>& spread, Rng& rng, double seconds) {
  Tally t;
  const auto start = Clock::now();
  while (since(start) < seconds) {
    const Window& w = rng.uniform(0.0, 1.0) < kHotShare
                          ? hot[rng.pick(0, hot.size() - 1)]
                          : spread[rng.pick(0, spread.size() - 1)];
    ++t.attempted;
    try {
      Slab2D slab;
      const auto t0 = Clock::now();
      std::vector<double> data;
      {
        DASSA_TRACE_SPAN("bench", "bench.read_window");
        data = client.read_window(w.begin_s, w.end_s, 0, 0, &slab);
      }
      t.rtts.push_back(since(t0));
      t.cells += static_cast<double>(data.size());
      if (!same_slab(slab, w.slab) || data != w.expected) ++t.failed;
    } catch (const std::exception& e) {
      ++t.failed;
      std::cerr << "request failed: " << e.what() << "\n";
    }
  }
  return t;
}

/// Run every client on its own thread for `seconds`, in one-second
/// slices the threads start together, and merge their tallies; the
/// slices give the per-second completion rates.
Tally run_clients(std::vector<std::unique_ptr<serve::Client>>& clients,
                  const std::vector<Window>& hot,
                  const std::vector<Window>& spread, std::uint64_t seed,
                  double seconds) {
  const auto slices = static_cast<std::size_t>(std::max(1.0, seconds));
  const std::size_t n = clients.size();
  std::vector<Tally> per(n * slices);  // [client * slices + slice]
  std::vector<double> walls(slices, 0.0);
  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Rng rng(seed * 16 + i);
      for (std::size_t k = 0; k < slices; ++k) {
        sync.arrive_and_wait();
        per[i * slices + k] = drive(*clients[i], hot, spread, rng, 1.0);
        sync.arrive_and_wait();
      }
    });
  }
  for (std::size_t k = 0; k < slices; ++k) {
    const auto start = Clock::now();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    walls[k] = since(start);
  }
  for (std::thread& th : threads) th.join();

  Tally all;
  for (std::size_t k = 0; k < slices; ++k) {
    std::vector<double> rtts;
    double cells = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Tally& t = per[i * slices + k];
      rtts.insert(rtts.end(), t.rtts.begin(), t.rtts.end());
      all.attempted += t.attempted;
      all.failed += t.failed;
      cells += t.cells;
    }
    all.requests_per_s.push_back(static_cast<double>(rtts.size()) / walls[k]);
    all.cells_per_s.push_back(cells / walls[k]);
    all.p50_s.push_back(quantile(rtts, 0.50));
    all.p99_s.push_back(quantile(rtts, 0.99));
    all.rtts.insert(all.rtts.end(), rtts.begin(), rtts.end());
  }
  return all;
}

}  // namespace

Report run_serve(const Options& opt) {
  constexpr std::size_t kChannels = 64;
  constexpr std::size_t kFiles = 8;
  constexpr double kSecondsPerFile = 15.0;
  constexpr std::size_t kClients = 4;
  constexpr std::int64_t kHotSpan_s = 8;
  WorkDir dir("serve");
  serve::ServeConfig scfg;  // defaults: 4 workers, 500 us hold
  scfg.socket_path = dir.file("serve.sock");
  scfg.archive = dir.file("archive.vca");

  std::unique_ptr<serve::Server> server;
  const auto setup = [&] {
    server.reset();
    const das::SynthDas scene =
        make_scene(opt.seed, kChannels, kRate, kFiles * kSecondsPerFile);
    das::save_vca_with_index(
        io::Vca::build(write_files(scene, dir.file("raw"), kFiles,
                                   kSecondsPerFile, io::ChunkShape{16, 512},
                                   "shuffle+lz")),
        scfg.archive);
    server = std::make_unique<serve::Server>(scfg);
    server->start();
  };
  const double first_setup_s = time_setup(setup);

  // The request pool: most windows inside one hot region every client
  // shares, the rest spread over the whole record.
  Rng rng(opt.seed ^ 0x5E7E5E7Eull);
  const std::int64_t t0 =
      das::Timestamp::parse(kRecordStart).epoch_seconds();
  const auto record_s = static_cast<std::int64_t>(kFiles * kSecondsPerFile);
  const std::int64_t hot_lo =
      t0 + static_cast<std::int64_t>(
               rng.pick(0, static_cast<std::size_t>(record_s - kHotSpan_s)));
  std::vector<Window> hot = make_windows(rng, 48, hot_lo, hot_lo + kHotSpan_s);
  std::vector<Window> spread = make_windows(rng, 16, t0, t0 + record_s);

  // Resolve every window once through the server (this also warms its
  // chunk cache) and pin the expected bytes from a direct read.
  Report rep;
  {
    serve::Client client(scfg.socket_path);
    const io::Vca direct = io::Vca::load(scfg.archive);
    for (std::vector<Window>* pool : {&hot, &spread}) {
      for (Window& w : *pool) {
        ++rep.attempted;
        const std::vector<double> got =
            client.read_window(w.begin_s, w.end_s, 0, 0, &w.slab);
        w.expected = direct.read_slab(w.slab);
        if (got != w.expected) ++rep.failed;
      }
    }
  }

  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<serve::Client>(scfg.socket_path));
  }

  if (!opt.trace) {
    const Tally t = run_clients(clients, hot, spread, opt.seed, opt.seconds);
    const double rss_mb = peak_rss_mb();
    rep.attempted += t.attempted;
    rep.failed += t.failed;
    clients.clear();
    // Each slice holds over a thousand round trips, so its p99 keeps
    // more than ten beyond it; the medians over slices shrug off the
    // seconds in which another tenant took the cores.
    Latency lat;
    lat.samples = t.rtts.size();
    lat.tail_q = 0.99;
    lat.p50_s = median(t.p50_s);
    lat.tail_s = median(t.p99_s);
    add_end_to_end(rep, false, setup_median(first_setup_s, setup),
                   median(t.cells_per_s), lat, median(t.requests_per_s),
                   rss_mb);
  } else {
    const Tally plain =
        run_clients(clients, hot, spread, opt.seed, opt.seconds / 2);
    const auto hists0 = global_metrics().snapshot();
    CounterDelta deltas;
    Ledger ledger;
    Tally tr;
    ledger.add_op(traced([&] {
      tr = run_clients(clients, hot, spread, opt.seed + 1, opt.seconds / 2);
    }));
    deltas.stop();
    const auto hists1 = global_metrics().snapshot();
    rep.attempted += plain.attempted + tr.attempted;
    rep.failed += plain.failed + tr.failed;

    const auto stage = [&](const char* name) {
      const auto now = hists1.find(name);
      const auto then = hists0.find(name);
      if (now == hists1.end()) return HistogramSnapshot{};
      return then == hists0.end() ? now->second
                                  : now->second.diff(then->second);
    };
    Layers in;
    in.ledger = &ledger;
    in.counters = &deltas;
    in.ops = static_cast<double>(std::max<std::size_t>(tr.rtts.size(), 1));
    in.overhead_ratio = mean(tr.rtts) / mean(plain.rtts) - 1.0;
    const char* names[4] = {serve::lat::kQueueWait, serve::lat::kCoalesce,
                            serve::lat::kDecode, serve::lat::kWrite};
    for (int i = 0; i < 4; ++i) {
      const HistogramSnapshot h = stage(names[i]);
      in.serve.p50_us[i] = h.quantile_ns(0.50) * 1e-3;
      in.serve.p99_us[i] = h.quantile_ns(0.99) * 1e-3;
    }
    in.serve.unattributed_p50_us =
        median(tr.rtts) * 1e6 -
        stage(serve::lat::kRequest).quantile_ns(0.50) * 1e-3;
    in.serve.requests_per_group =
        deltas.get(counters::kServeRequests) /
        std::max(1.0, deltas.get(counters::kServeBatchGroups));
    ledger.print(std::cout, in.ops);
    add_layer_metrics(rep, in);
  }
  clients.clear();
  server.reset();
  return rep;
}

}  // namespace bench
