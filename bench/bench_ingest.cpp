// Streaming ingest benchmark: ingest-to-detection latency and the
// bounded-queue backpressure invariants (docs/INGEST.md).
//
// Replays a pre-generated spool through the real daemon pieces --
// SpoolWatcher producer thread, a deliberately tiny BoundedQueue, and
// the IngestDriver consumer -- with the telemetry sampler running, then
// reports the per-file ingest-to-detection latency distribution
// (p50/p99) read back from the *validated* "dassa.telemetry.v1" file
// the run exported, exactly as an operator would read it off a real
// deployment. Writes BENCH_ingest.json and, with --check, gates:
//
//   * correctness: the streamed similarity map is byte-identical to an
//     offline run over the same files, and no file was dropped
//     (queue pushed == popped == files admitted, zero quarantined);
//   * backpressure: the undersized queue actually blocked the producer
//     at least once and its depth never exceeded capacity;
//   * latency: ingest-to-detection p50/p99 stay under generous
//     ceilings (kP50CeilingNs / kP99CeilingNs) sized for noisy shared
//     runners -- a real regression (for example accidentally serial
//     window processing or a quadratic rescan of the spool) blows
//     straight through them.
//
// Usage: bench_ingest [--check] [--out BENCH_ingest.json]
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/ingest/driver.hpp"
#include "dassa/ingest/queue.hpp"
#include "dassa/ingest/spool.hpp"

using namespace dassa;
using bench::BenchDir;
using bench::Table;

namespace {

constexpr std::size_t kFiles = 8;
constexpr std::size_t kChannels = 32;
constexpr std::size_t kSamplesPerFile = 200;
constexpr std::size_t kQueueCapacity = 2;  // undersized on purpose

// Latency ceilings (ns). A window over this geometry takes a few
// milliseconds of engine time on the reference container; a file waits
// for at most two windows. 1 s / 2 s leave two orders of magnitude of
// headroom for runner noise while still catching real regressions.
constexpr double kP50CeilingNs = 1.0e9;
constexpr double kP99CeilingNs = 2.0e9;

/// p50/p99 of the per-file latency, read from the validated telemetry
/// file the run wrote (not from in-process state).
struct LatencyQuantiles {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t count = 0;
};

LatencyQuantiles read_back_latency(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const telemetry::TelemetryFile parsed =
      telemetry::parse_telemetry_jsonl(text.str());
  telemetry::validate_telemetry_file(parsed);
  LatencyQuantiles q;
  for (const telemetry::HistRecord& h : parsed.hists) {
    if (h.name == "ingest.file_to_detection") {
      q.p50_ns = h.p50_ns;
      q.p99_ns = h.p99_ns;
      q.count = h.count;
    }
  }
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_ingest [--check] [--out FILE]\n";
      return 2;
    }
  }

  BenchDir dir("ingest");
  const std::vector<std::string> files = bench::make_acquisition(
      dir, "spool", kChannels, kFiles, kSamplesPerFile);

  ingest::IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity.window_half = 10;
  cfg.similarity.lag_half = 5;
  cfg.detect = true;
  cfg.engine.nodes = 2;
  cfg.engine.cores_per_node = 2;

  global_counters().reset();
  global_metrics().reset();

  telemetry::SamplerConfig sampler_config;
  sampler_config.period = std::chrono::milliseconds(10);
  telemetry::TelemetrySampler sampler(sampler_config);

  ingest::BoundedQueue<ingest::SpoolFile> queue(kQueueCapacity);
  global_metrics().register_gauge("ingest.queue.depth", [&queue] {
    return static_cast<double>(queue.depth());
  });
  ingest::SpoolWatcher watcher(ingest::SpoolConfig{dir.file("spool")});
  ingest::IngestDriver driver(cfg);

  sampler.start();
  WallTimer run_timer;
  std::thread producer([&] {
    // --once semantics: drain the pre-populated spool flat out. The
    // tiny queue makes every burst of admissions block against the
    // consumer's window processing -- the backpressure under test.
    while (true) {
      const auto admitted = watcher.poll();
      for (auto f : admitted) {
        if (!queue.push(std::move(f))) return;
      }
      if (admitted.empty() && watcher.pending() == 0) break;
    }
    queue.close();
  });
  while (auto f = queue.pop()) driver.add_file(*f);
  producer.join();
  const ingest::IngestResult result = driver.finish();
  const double run_s = run_timer.seconds();
  sampler.stop();
  sampler.tick();
  // Neutralise the gauge before `queue` dies: the registry is global
  // and a later tick from another user would read a dangling ref.
  global_metrics().register_gauge("ingest.queue.depth", [] { return 0.0; });

  // Export + validate the telemetry file, then read the latency
  // distribution back off disk -- the same path an operator takes.
  const std::string telemetry_path = dir.file("ingest_telemetry.jsonl");
  {
    telemetry::TelemetryFile file;
    file.meta["tool"] = "bench_ingest";
    file.meta["pipeline"] = "similarity";
    file.meta["world_size"] = std::to_string(cfg.engine.world_size());
    file.meta["threads_per_rank"] =
        std::to_string(cfg.engine.threads_per_rank());
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
    std::ofstream out(telemetry_path);
    telemetry::write_telemetry_file(out, file);
  }
  const LatencyQuantiles latency = read_back_latency(telemetry_path);

  // Offline reference for the byte-identity gate.
  const io::Vca vca = io::Vca::build(files);
  const core::Array2D offline =
      das::local_similarity_distributed(cfg.engine, vca, cfg.similarity)
          .output;
  const bool identical = result.similarity == offline;

  const auto counter = [](const char* name) {
    return global_counters().get(name);
  };
  const std::uint64_t pushed = counter(counters::kIngestQueuePushed);
  const std::uint64_t popped = counter(counters::kIngestQueuePopped);
  const std::uint64_t blocked = counter(counters::kIngestQueuePushBlocked);
  const std::uint64_t peak = counter(counters::kIngestQueuePeakDepth);
  const std::uint64_t quarantined =
      counter(counters::kIngestFilesQuarantined);

  bench::section("streaming ingest: spool -> queue -> windows -> events");
  Table table({"metric", "value"});
  table.row("files", static_cast<std::uint64_t>(kFiles));
  table.row("windows", static_cast<std::uint64_t>(result.windows));
  table.row("events", static_cast<std::uint64_t>(result.events.size()));
  table.row("run_seconds", run_s);
  table.row("latency_p50_ms", latency.p50_ns / 1e6);
  table.row("latency_p99_ms", latency.p99_ns / 1e6);
  table.row("queue_pushed", pushed);
  table.row("queue_popped", popped);
  table.row("queue_push_blocked", blocked);
  table.row("queue_peak_depth", peak);
  table.row("byte_identical", identical ? 1.0 : 0.0);

  std::ofstream json(out_path, std::ios::trunc);
  json << "{\n  \"bench\": \"ingest\",\n"
       << "  \"files\": " << kFiles << ",\n"
       << "  \"windows\": " << result.windows << ",\n"
       << "  \"events\": " << result.events.size() << ",\n"
       << "  \"run_seconds\": " << run_s << ",\n"
       << "  \"latency_p50_ns\": " << latency.p50_ns << ",\n"
       << "  \"latency_p99_ns\": " << latency.p99_ns << ",\n"
       << "  \"latency_count\": " << latency.count << ",\n"
       << "  \"queue\": {\"capacity\": " << kQueueCapacity
       << ", \"pushed\": " << pushed << ", \"popped\": " << popped
       << ", \"push_blocked\": " << blocked << ", \"peak_depth\": " << peak
       << "},\n"
       << "  \"quarantined\": " << quarantined << ",\n"
       << "  \"byte_identical_to_offline\": "
       << (identical ? "true" : "false") << ",\n"
       << "  \"thresholds\": {\"p50_ceiling_ns\": " << kP50CeilingNs
       << ", \"p99_ceiling_ns\": " << kP99CeilingNs << "}\n}\n";
  json.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (check) {
    bool ok = true;
    if (!identical) {
      std::cerr << "bench_ingest CHECK FAILED: streamed output is not "
                   "byte-identical to the offline run\n";
      ok = false;
    }
    if (pushed != kFiles || popped != kFiles || quarantined != 0) {
      std::cerr << "bench_ingest CHECK FAILED: files were dropped "
                   "(pushed " << pushed << ", popped " << popped
                << ", quarantined " << quarantined << ", expected "
                << kFiles << ")\n";
      ok = false;
    }
    if (blocked < 1) {
      std::cerr << "bench_ingest CHECK FAILED: the undersized queue "
                   "never blocked the producer (backpressure untested)\n";
      ok = false;
    }
    if (peak > kQueueCapacity) {
      std::cerr << "bench_ingest CHECK FAILED: queue depth " << peak
                << " exceeded capacity " << kQueueCapacity << "\n";
      ok = false;
    }
    if (latency.count != kFiles) {
      std::cerr << "bench_ingest CHECK FAILED: expected " << kFiles
                << " latency samples, telemetry has " << latency.count
                << "\n";
      ok = false;
    }
    if (latency.p50_ns > kP50CeilingNs || latency.p99_ns > kP99CeilingNs) {
      std::cerr << "bench_ingest CHECK FAILED: latency p50 "
                << latency.p50_ns / 1e6 << " ms / p99 "
                << latency.p99_ns / 1e6 << " ms over ceilings\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "bench_ingest check passed: byte-identical, no drops, "
              << "backpressure engaged " << blocked << "x, p50 "
              << latency.p50_ns / 1e6 << " ms, p99 "
              << latency.p99_ns / 1e6 << " ms\n";
  }
  return 0;
}
