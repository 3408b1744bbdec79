// das_analyze: run a DASSA analysis pipeline over an acquisition
// directory from the command line -- the end-to-end workflow a
// geophysicist runs (search -> VCA -> HAEE -> output file).
//
// Usage:
//   das_analyze --dir data --pipeline similarity --out result.dh5
//               [-s yymmddhhmmss -c N | -e regex]   (default: all files)
//               [--nodes 4] [--cores 2] [--mpi-per-core]
//
// --out (or -o) is required for the pipelines that produce an output
// array (similarity, interferometry): the tool never silently drops
// artifacts into the current working directory.
//   pipeline "similarity":  paper Algorithm 2 (local similarity)
//     [--window-half M] [--lag-half L] [--channel-offset K]
//   pipeline "interferometry": paper Algorithm 3
//     [--band-lo HZ] [--band-hi HZ] [--resample-down R]
//     [--master CH] [--full-correlation]
//   pipeline "qc": channel quality control
//     [--dead-fraction F] [--noisy-multiple M]
//   any pipeline:
//     [--trace out.json]      enable span tracing, export chrome://tracing
//                             JSON to out.json (inspect with das_trace)
//     [--telemetry out.jsonl] sample counters/resources during the run,
//                             write the "dassa.telemetry.v1" timeline with
//                             per-rank aggregates, and print the health
//                             report to stdout (inspect with das_health)
//     [--log-json path]       mirror log records to a JSONL file
//     [--log-level L]         debug|info|warn|error (default info)
#include <fstream>
#include <iostream>
#include <sstream>

#include "arg_parse.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/channel_qc.hpp"
#include "dassa/das/interferometry.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/search.hpp"

namespace {

using namespace dassa;

/// One structured record per counter namespace: a cold plan cache or
/// runaway allocation shows up here long before it shows up in wall
/// time.
void log_counters(const char* event, const char* prefix1,
                  const char* prefix2) {
  std::string line;
  for (const auto& [name, value] : global_counters().snapshot()) {
    if (name.rfind(prefix1, 0) == 0 ||
        (prefix2 != nullptr && name.rfind(prefix2, 0) == 0)) {
      line += ' ';
      line += name;
      line += '=';
      line += std::to_string(value);
    }
  }
  if (!line.empty()) {
    DASSA_SLOG(kInfo, event) << line;
  }
}

/// Export the recorded spans as chrome://tracing JSON plus a per-span
/// summary and the unified metrics report. No-op unless --trace given.
void maybe_export_trace(const tools::Args& args) {
  if (!args.has("--trace")) return;
  const std::string path = args.get("--trace");
  const std::vector<trace::TraceEvent> events = trace::collect();
  std::ofstream out(path);
  DASSA_CHECK(out.good(), "cannot open trace output file: " + path);
  trace::write_chrome_trace(out, events);
  std::ostringstream summary;
  trace::write_summary(summary, events);
  global_metrics().write_report(summary);
  DASSA_SLOG(kInfo, "analyze.trace")
          .field("spans", static_cast<std::uint64_t>(events.size()))
          .field("path", path)
      << "\n"
      << summary.str();
}

/// Assemble the telemetry file from the sampler timeline and the
/// engine's cross-rank reduction, write it, then re-parse and validate
/// the bytes on disk -- the health report only prints if the file
/// round-trips through the schema checker.
void export_telemetry(const std::string& path, const tools::Args& args,
                      const core::EngineReport& report,
                      const telemetry::TelemetrySampler& sampler) {
  telemetry::TelemetryFile file;
  file.meta["tool"] = "das_analyze";
  file.meta["pipeline"] = args.get("--pipeline");
  file.meta["world_size"] = std::to_string(report.world_size);
  file.meta["threads_per_rank"] = std::to_string(report.threads_per_rank);
  file.samples = sampler.timeline();

  const auto cluster_sum = [&report](const char* name) {
    const auto it = report.telemetry.counters.find(name);
    return it == report.telemetry.counters.end() ? std::uint64_t{0}
                                                 : it->second.sum;
  };
  for (const auto& [name, secs] : report.stages.stages()) {
    telemetry::StageRecord st;
    st.name = name;
    st.seconds = secs;
    if (name == "read") {
      st.bytes = cluster_sum("haee.read_bytes");
      st.rows = cluster_sum("haee.rows_owned");
    } else if (name == "compute") {
      st.rows = cluster_sum("haee.rows_owned");
    } else if (name == "write") {
      st.bytes = cluster_sum("haee.output_values") * sizeof(double);
      st.rows = cluster_sum("haee.rows_owned");
    }
    file.stages.push_back(std::move(st));
  }

  for (const mpi::RankTelemetry& rt : report.telemetry.per_rank) {
    telemetry::RankRecord rec;
    rec.rank = static_cast<int>(file.ranks.size());
    rec.counters = rt.counters;
    file.ranks.push_back(std::move(rec));
  }
  for (const auto& [name, agg] : report.telemetry.counters) {
    telemetry::AggRecord a;
    a.counter = name;
    a.sum = agg.sum;
    a.min = agg.min;
    a.max = agg.max;
    a.min_rank = agg.min_rank;
    a.max_rank = agg.max_rank;
    a.imbalance = agg.imbalance(report.world_size);
    file.aggs.push_back(std::move(a));
  }
  for (const auto& [name, h] : report.telemetry.hists) {
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
  DASSA_SLOG(kInfo, "analyze.telemetry")
      .field("path", path)
      .field("samples", static_cast<std::uint64_t>(parsed.samples.size()))
      .field("ranks", static_cast<std::uint64_t>(parsed.ranks.size()))
      .field("dropped", sampler.dropped());
  telemetry::write_health_report(std::cout, parsed);
}

std::vector<std::string> find_files(const tools::Args& args) {
  const das::Catalog catalog = das::Catalog::scan(args.get("--dir"));
  std::vector<das::DasFileInfo> hits;
  if (args.has("-s")) {
    hits = catalog.query_range(
        das::Timestamp::parse(args.get("-s")),
        static_cast<std::size_t>(args.get_long("-c", 1)));
  } else if (args.has("-e")) {
    hits = catalog.query_regex(args.get("-e"));
  } else {
    hits = catalog.entries();
  }
  return das::Catalog::paths(hits);
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  throw InvalidArgument("unknown log level: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (!args.has("--dir") || !args.has("--pipeline")) {
    std::cerr << "usage: das_analyze --dir <dir> --pipeline "
                 "<similarity|interferometry|qc> [--out result.dh5] "
                 "[options]\n"
                 "--out/-o is required unless the pipeline is qc\n"
                 "see the header comment of tools/das_analyze.cpp "
                 "for the full option list\n";
    return 2;
  }
  try {
    set_log_level(parse_log_level(args.get("--log-level", "info")));
    if (args.has("--log-json")) set_log_file(args.get("--log-json"));
    if (args.has("--trace")) trace::set_enabled(true);

    telemetry::SamplerConfig sampler_config;
    sampler_config.period = std::chrono::milliseconds(
        args.get_long("--telemetry-period-ms", 25));
    telemetry::TelemetrySampler sampler(sampler_config);
    if (args.has("--telemetry")) {
      trace::set_enabled(true);  // stall detection needs open spans
      sampler.start();
    }

    const std::vector<std::string> files = find_files(args);
    if (files.empty()) {
      DASSA_SLOG(kError, "analyze.no_files")
          .field("dir", args.get("--dir"));
      return 1;
    }
    io::Vca vca = io::Vca::build(files);
    DASSA_SLOG(kInfo, "analyze.input")
            .field("files", static_cast<std::uint64_t>(files.size()))
        << vca.shape();

    core::EngineConfig config;
    config.nodes = static_cast<int>(args.get_long("--nodes", 2));
    config.cores_per_node = static_cast<int>(args.get_long("--cores", 2));
    config.mode = args.has("--mpi-per-core")
                      ? core::EngineMode::kMpiPerCore
                      : core::EngineMode::kHybrid;

    core::EngineReport report;
    const std::string pipeline = args.get("--pipeline");
    // Array-producing pipelines must name their destination: writing a
    // default file into whatever directory the tool happens to run
    // from litters CWDs (and CI checkouts) with artifacts.
    if (pipeline != "qc" && !args.has("--out") && !args.has("-o")) {
      DASSA_SLOG(kError, "analyze.no_out")
          << "--out/-o is required for pipeline '" << pipeline
          << "' (it writes a result array); pass --out result.dh5";
      return 2;
    }
    if (pipeline == "similarity") {
      das::LocalSimilarityParams p;
      p.window_half =
          static_cast<std::size_t>(args.get_long("--window-half", 25));
      p.lag_half = static_cast<std::size_t>(args.get_long("--lag-half", 10));
      p.channel_offset =
          static_cast<std::size_t>(args.get_long("--channel-offset", 1));
      report = das::local_similarity_distributed(config, vca, p);
    } else if (pipeline == "interferometry") {
      das::InterferometryParams p;
      p.sampling_hz =
          vca.global_meta().get_f64(io::meta::kSamplingFrequencyHz);
      p.band_lo_hz = args.get_double("--band-lo", 1.0);
      p.band_hi_hz =
          args.get_double("--band-hi", 0.45 * p.sampling_hz);
      p.resample_down =
          static_cast<std::size_t>(args.get_long("--resample-down", 2));
      p.master_channel = static_cast<std::size_t>(
          args.get_long("--master",
                        static_cast<long>(vca.shape().rows / 2)));
      p.full_correlation = args.has("--full-correlation");
      report = das::interferometry_distributed(config, vca, p);
    } else if (pipeline == "qc") {
      das::ChannelQcParams p;
      p.dead_rms_fraction = args.get_double("--dead-fraction", 0.1);
      p.noisy_rms_multiple = args.get_double("--noisy-multiple", 5.0);
      const das::ChannelQcReport qc = das::channel_qc(config, vca, p);
      std::cout << "channel,rms,peak,kurtosis,status\n";
      for (std::size_t ch = 0; ch < qc.channels.size(); ++ch) {
        const das::ChannelStats& c = qc.channels[ch];
        std::cout << ch << "," << c.rms << "," << c.peak << ","
                  << c.kurtosis << ","
                  << das::channel_status_name(c.status) << "\n";
      }
      DASSA_SLOG(kInfo, "analyze.qc")
          .field("channels", static_cast<std::uint64_t>(qc.channels.size()))
          .field("dead", static_cast<std::uint64_t>(
                             qc.count(das::ChannelStatus::kDead)))
          .field("noisy", static_cast<std::uint64_t>(
                              qc.count(das::ChannelStatus::kNoisy)))
          .field("median_rms", qc.median_rms);
      log_counters("analyze.dsp_counters", "dsp.", nullptr);
      log_counters("analyze.storage_counters", "io.codec.", "io.cache.");
      maybe_export_trace(args);
      if (args.has("--telemetry")) {
        sampler.stop();
        DASSA_SLOG(kWarn, "analyze.telemetry")
            << "--telemetry needs a distributed pipeline "
               "(similarity|interferometry); qc has no rank telemetry";
      }
      return 0;
    } else {
      DASSA_SLOG(kError, "analyze.bad_pipeline").field("pipeline", pipeline);
      return 2;
    }

    std::ostringstream stages;
    stages << report.output.shape << "; " << report.stages;
    DASSA_SLOG(kInfo, "analyze.done")
            .field("world_size", report.world_size)
        << stages.str();
    log_counters("analyze.dsp_counters", "dsp.", nullptr);
    log_counters("analyze.storage_counters", "io.codec.", "io.cache.");
    const std::string out_path =
        args.has("--out") ? args.get("--out") : args.get("-o");
    io::Dash5Header header;
    header.shape = report.output.shape;
    header.global = vca.global_meta();
    io::dash5_write(out_path, header, report.output.data);
    DASSA_SLOG(kInfo, "analyze.output").field("path", out_path);
    maybe_export_trace(args);
    if (args.has("--telemetry")) {
      sampler.stop();
      sampler.tick();  // final sample: the completed run's totals
      export_telemetry(args.get("--telemetry"), args, report, sampler);
    }
    return 0;
  } catch (const std::exception& e) {
    DASSA_SLOG(kError, "analyze.fail") << e.what();
    return 1;
  }
}
