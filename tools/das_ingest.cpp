// das_ingest: the streaming ingest daemon (docs/INGEST.md) -- watch a
// spool directory for newly arriving DASH5 acquisition files, admit
// them through a bounded backpressure queue, grow a live VCA, and run
// the local-similarity detector over a sliding window whose emitted
// output is byte-identical to an offline das_analyze run over the same
// files.
//
// Usage:
//   das_ingest --spool <dir> --out <result.dh5>
//              [--window N]    files per analysis window (default 4)
//              [--overlap N]   files shared between windows (default 1)
//              [--max-queue N] admission queue capacity (default 8)
//              [--poll-ms MS]  spool poll period (default 250)
//              [--once]        drain the spool as-is, then exit (no
//                              waiting for new files; CI / bench mode)
//              [--vca-index P] republish a .vca index atomically after
//                              every admitted file
//              [--nodes N] [--cores N] [--mpi-per-core]   engine layout
//              [--window-half M] [--lag-half L] [--channel-offset K]
//              [--no-detect]   skip per-window + final event detection
//   any mode:
//     [--stats-socket <path>] answer das_top's kStats polls on a
//                             dedicated socket (live counters, gauges,
//                             and exact histogram buckets)
//     [--telemetry out.jsonl] sample counters/gauges (incl. the
//                             ingest.queue.depth gauge) during the run,
//                             write the validated "dassa.telemetry.v1"
//                             timeline + the ingest latency histograms,
//                             and print the health report to stdout
//     [--telemetry-period-ms MS] [--log-json path] [--log-level L]
//
// Without --once the daemon runs until SIGINT/SIGTERM, then shuts down
// gracefully: the producer stops polling, the queue is closed, every
// already-admitted file is drained through the driver, the final
// window is processed, and the (partial) result is still written.
// SIGUSR1 flushes the validated telemetry JSONL mid-run (needs
// --telemetry); ingestion keeps running.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "arg_parse.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/events.hpp"
#include "dassa/ingest/driver.hpp"
#include "dassa/ingest/queue.hpp"
#include "dassa/ingest/spool.hpp"
#include "dassa/serve/stats.hpp"

namespace {

using namespace dassa;

std::atomic<bool> g_stop{false};
std::atomic<bool> g_flush{false};

void handle_signal(int) { g_stop.store(true); }

void handle_flush(int) { g_flush.store(true); }

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  throw InvalidArgument("unknown log level: " + name);
}

/// One structured record for the ingest.* counters after the drain.
void log_ingest_counters() {
  std::string line;
  for (const auto& [name, value] : global_counters().snapshot()) {
    if (name.rfind("ingest.", 0) == 0) {
      line += ' ';
      line += name;
      line += '=';
      line += std::to_string(value);
    }
  }
  if (!line.empty()) {
    DASSA_SLOG(kInfo, "ingest.counters") << line;
  }
}

/// Telemetry export mirroring das_analyze: assemble, write, re-parse,
/// validate, then print the health report. The ingest run's latency
/// distributions (ingest.file_to_detection above all) ride along as
/// hist records -- that is what bench_ingest gates p50/p99 on.
/// `final_report` additionally prints the health report to stdout --
/// the end-of-run path; SIGUSR1 flushes skip it.
void export_telemetry(const std::string& path,
                      const core::EngineConfig& engine,
                      const telemetry::TelemetrySampler& sampler,
                      bool final_report) {
  telemetry::TelemetryFile file;
  file.meta["tool"] = "das_ingest";
  file.meta["pipeline"] = "similarity";
  file.meta["world_size"] = std::to_string(engine.world_size());
  file.meta["threads_per_rank"] = std::to_string(engine.threads_per_rank());
  file.samples = sampler.timeline();
  for (const auto& [name, h] : global_metrics().snapshot()) {
    telemetry::HistRecord rec;
    rec.name = name;
    rec.count = h.count;
    rec.total_ns = h.total_ns;
    rec.p50_ns = h.quantile_ns(0.50);
    rec.p95_ns = h.quantile_ns(0.95);
    rec.p99_ns = h.quantile_ns(0.99);
    rec.buckets = h.buckets;
    file.hists.push_back(std::move(rec));
  }
  {
    std::ofstream out(path);
    DASSA_CHECK(out.good(), "cannot open telemetry output file: " + path);
    telemetry::write_telemetry_file(out, file);
  }
  std::ifstream back(path);
  std::ostringstream text;
  text << back.rdbuf();
  const telemetry::TelemetryFile parsed =
      telemetry::parse_telemetry_jsonl(text.str());
  telemetry::validate_telemetry_file(parsed);
  DASSA_SLOG(kInfo, "ingest.telemetry")
      .field("path", path)
      .field("samples", static_cast<std::uint64_t>(parsed.samples.size()))
      .field("hists", static_cast<std::uint64_t>(parsed.hists.size()))
      .field("dropped", sampler.dropped());
  if (final_report) telemetry::write_health_report(std::cout, parsed);
}

/// Producer loop: poll the spool, push admitted files into the queue.
/// Exits (closing the queue) on shutdown, or -- in once mode -- as soon
/// as a poll admits nothing and no file is still proving stability.
void produce(ingest::SpoolWatcher& watcher,
             ingest::BoundedQueue<ingest::SpoolFile>& queue, bool once,
             long poll_ms) {
  while (!g_stop.load()) {
    std::vector<ingest::SpoolFile> admitted;
    try {
      admitted = watcher.poll();
    } catch (const std::exception& e) {
      DASSA_SLOG(kError, "ingest.poll_fail") << e.what();
      break;
    }
    for (ingest::SpoolFile& f : admitted) {
      if (!queue.push(std::move(f))) return;  // queue closed under us
    }
    if (once) {
      if (admitted.empty() && watcher.pending() == 0) break;
      continue;  // no sleep: drain the pre-populated spool flat out
    }
    for (long slept = 0; slept < poll_ms && !g_stop.load(); slept += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  queue.close();
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (!args.has("--spool") || !(args.has("--out") || args.has("-o"))) {
    std::cerr << "usage: das_ingest --spool <dir> --out <result.dh5> "
                 "[--window N] [--overlap N] [--max-queue N] "
                 "[--poll-ms MS] [--once] [--vca-index P]\n"
                 "[--nodes N] [--cores N] [--mpi-per-core] "
                 "[--window-half M] [--lag-half L] [--channel-offset K] "
                 "[--no-detect]\n"
                 "[--stats-socket <path>] "
                 "[--telemetry out.jsonl] [--telemetry-period-ms MS] "
                 "[--log-json path] [--log-level L]\n"
                 "SIGUSR1 flushes the telemetry JSONL mid-run; das_top "
                 "polls live stats via --stats-socket\n"
                 "see the header comment of tools/das_ingest.cpp for "
                 "semantics\n";
    return 2;
  }
  try {
    set_log_level(parse_log_level(args.get("--log-level", "info")));
    if (args.has("--log-json")) set_log_file(args.get("--log-json"));

    telemetry::SamplerConfig sampler_config;
    sampler_config.period = std::chrono::milliseconds(
        args.get_long("--telemetry-period-ms", 25));
    telemetry::TelemetrySampler sampler(sampler_config);
    if (args.has("--telemetry")) {
      trace::set_enabled(true);
      sampler.start();
    }

    ingest::IngestConfig cfg;
    cfg.window_files = static_cast<std::size_t>(args.get_long("--window", 4));
    cfg.overlap_files =
        static_cast<std::size_t>(args.get_long("--overlap", 1));
    cfg.similarity.window_half =
        static_cast<std::size_t>(args.get_long("--window-half", 25));
    cfg.similarity.lag_half =
        static_cast<std::size_t>(args.get_long("--lag-half", 10));
    cfg.similarity.channel_offset =
        static_cast<std::size_t>(args.get_long("--channel-offset", 1));
    cfg.detect = !args.has("--no-detect");
    cfg.engine.nodes = static_cast<int>(args.get_long("--nodes", 2));
    cfg.engine.cores_per_node =
        static_cast<int>(args.get_long("--cores", 2));
    cfg.engine.mode = args.has("--mpi-per-core")
                          ? core::EngineMode::kMpiPerCore
                          : core::EngineMode::kHybrid;
    cfg.vca_index_path = args.get("--vca-index", "");

    const auto queue = std::make_shared<ingest::BoundedQueue<
        ingest::SpoolFile>>(
        static_cast<std::size_t>(args.get_long("--max-queue", 8)));
    global_metrics().register_gauge("ingest.queue.depth", [queue] {
      return static_cast<double>(queue->depth());
    });

    ingest::SpoolWatcher watcher(
        ingest::SpoolConfig{args.get("--spool"), "quarantine"});
    ingest::IngestDriver driver(cfg);
    driver.on_events = [](const std::vector<das::DetectedEvent>& events) {
      for (const das::DetectedEvent& e : events) {
        DASSA_SLOG(kInfo, "ingest.event")
            .field("type", das::event_class_name(e.type))
            .field("channel_lo", e.channel_lo)
            .field("channel_hi", e.channel_hi)
            .field("time_lo", e.time_lo)
            .field("time_hi", e.time_hi)
            .field("peak", e.peak_similarity);
      }
    };

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGUSR1, handle_flush);

    // The main thread blocks in queue->pop() below, so mid-run
    // telemetry flushes need their own watcher thread: it polls the
    // g_flush latch the SIGUSR1 handler sets (handler-safe: the
    // handler only stores an atomic) and exports off the hot path.
    std::atomic<bool> flusher_stop{false};
    std::thread flusher;
    // Unwind guard: if anything below throws (a bad --stats-socket
    // path, spool or driver errors), stack unwinding would destroy a
    // still-joinable flusher and terminate() before reaching the
    // catch-and-log path -- so stopping and joining it is the
    // destructor's job, not the happy path's.
    struct FlusherJoiner {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~FlusherJoiner() {
        stop.store(true);
        if (thread.joinable()) thread.join();
      }
    } flusher_joiner{flusher_stop, flusher};
    if (args.has("--telemetry")) {
      flusher = std::thread([&args, &cfg, &sampler, &flusher_stop] {
        while (!flusher_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          if (g_flush.exchange(false)) {
            sampler.tick();
            export_telemetry(args.get("--telemetry"), cfg.engine, sampler,
                             /*final_report=*/false);
          }
        }
      });
    }

    // Live introspection: das_ingest's primary "socket" is the spool
    // directory, so kStats gets a dedicated listener.
    std::unique_ptr<serve::StatsListener> stats;
    if (args.has("--stats-socket")) {
      stats = std::make_unique<serve::StatsListener>(
          args.get("--stats-socket"));
      stats->start();
    }

    const bool once = args.has("--once");
    const long poll_ms = args.get_long("--poll-ms", 250);
    DASSA_SLOG(kInfo, "ingest.start")
        .field("spool", args.get("--spool"))
        .field("window_files", cfg.window_files)
        .field("overlap_files", cfg.overlap_files)
        .field("queue_capacity", queue->capacity())
        .field("once", once);

    std::thread producer(
        [&watcher, queue, once, poll_ms] {
          produce(watcher, *queue, once, poll_ms);
        });
    // Same unwind hazard as the flusher: driver.add_file below can
    // throw, and the producer may be blocked in queue->push(), so the
    // guard closes the queue to unblock it before joining.
    struct ProducerJoiner {
      std::shared_ptr<ingest::BoundedQueue<ingest::SpoolFile>> queue;
      std::thread& thread;
      ~ProducerJoiner() {
        if (thread.joinable()) {
          g_stop.store(true);
          queue->close();
          thread.join();
        }
      }
    } producer_joiner{queue, producer};
    while (auto file = queue->pop()) {
      driver.add_file(*file);
    }
    producer.join();

    const ingest::IngestResult result = driver.finish();
    DASSA_SLOG(kInfo, "ingest.drained")
        .field("files", result.files)
        .field("windows", result.windows)
        .field("quarantined", watcher.quarantined())
        .field("events", static_cast<std::uint64_t>(result.events.size()));
    log_ingest_counters();

    const std::string out_path =
        args.has("--out") ? args.get("--out") : args.get("-o");
    if (result.similarity.shape.size() > 0) {
      io::Dash5Header header;
      header.shape = result.similarity.shape;
      header.global = result.global_meta;
      io::dash5_write(out_path, header, result.similarity.data);
      DASSA_SLOG(kInfo, "ingest.output").field("path", out_path);
      if (result.global_meta.contains(io::meta::kSamplingFrequencyHz)) {
        const double hz =
            result.global_meta.get_f64(io::meta::kSamplingFrequencyHz);
        for (const das::DetectedEvent& e : result.events) {
          std::cout << das::describe(e, hz) << "\n";
        }
      }
    } else {
      DASSA_SLOG(kWarn, "ingest.no_output")
          << "no files were ingested; nothing written to " << out_path;
    }

    if (stats) stats->stop();
    if (args.has("--telemetry")) {
      flusher_stop.store(true);
      flusher.join();
      sampler.stop();
      sampler.tick();  // final sample: the completed drain's totals
      export_telemetry(args.get("--telemetry"), cfg.engine, sampler,
                       /*final_report=*/true);
    }
    return 0;
  } catch (const std::exception& e) {
    DASSA_SLOG(kError, "ingest.fail") << e.what();
    return 1;
  }
}
