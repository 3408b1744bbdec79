// das_top: live view of a running DASSA daemon (docs/OBSERVABILITY.md).
//
// Polls the kStats protocol (serve/stats.hpp) over the daemon's socket
// -- das_serve answers on its main socket, das_ingest on its
// --stats-socket listener -- and diffs consecutive snapshots into an
// interval view: request throughput, per-stage p50/p99 from the
// serve.lat.* histograms, admission-queue depth, coalesce ratio,
// chunk-cache hit rate, and the ingest admission->detection latency.
// The histogram diff is bucket-exact (HistogramSnapshot::diff), so the
// interval quantiles are computed from exactly the requests that
// finished inside the interval, not a decaying approximation.
//
// Usage:
//   das_top --socket <path>
//           [--interval-ms MS]   poll period (default 1000)
//           [--count N]          samples then exit (default: until SIGINT)
//           [--once]             one snapshot, print, exit
//           [--prom]             Prometheus text exposition (with --once)
//
// The stall rule das_health applies post-mortem (telemetry::stalled)
// runs here on every polled interval, so a stall is flagged on the
// spot.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>

#include "arg_parse.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/serve/server.hpp"
#include "dassa/serve/stats.hpp"

namespace {

using namespace dassa;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

std::uint64_t counter_of(const serve::StatsSnapshot& s,
                         const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double gauge_of(const serve::StatsSnapshot& s, const std::string& name,
                double fallback) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? fallback : it->second;
}

/// Counter delta, clamped at zero so a daemon restart between polls
/// shows as "no progress", never as a wrapped-around flood.
std::uint64_t delta(const serve::StatsSnapshot& cur,
                    const serve::StatsSnapshot& prev,
                    const std::string& name) {
  const std::uint64_t now = counter_of(cur, name);
  const std::uint64_t before = counter_of(prev, name);
  return now >= before ? now - before : now;
}

/// Prometheus metric name: dots and anything else outside
/// [a-zA-Z0-9_] become underscores.
std::string prom_name(const std::string& name) {
  std::string out = "dassa_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus text exposition of one cumulative snapshot: counters as
/// counters, gauges as gauges, latency histograms as native Prometheus
/// histograms in seconds (bucket i's upper bound is 2^(i+1) ns).
void write_prometheus(std::ostream& os, const serve::StatsSnapshot& s) {
  for (const auto& [name, value] : s.counters) {
    const std::string p = prom_name(name) + "_total";
    os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : s.gauges) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << value << "\n";
  }
  char buf[160];
  for (const auto& [name, h] : s.hists) {
    const std::string p = prom_name(name) + "_seconds";
    os << "# TYPE " << p << " histogram\n";
    std::size_t highest = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] != 0) highest = i;
    }
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= highest; ++i) {
      cum += h.buckets[i];
      const double le = std::ldexp(1.0, static_cast<int>(i) + 1) / 1e9;
      std::snprintf(buf, sizeof buf, "%s_bucket{le=\"%.9g\"} %llu\n",
                    p.c_str(), le, static_cast<unsigned long long>(cum));
      os << buf;
    }
    os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    std::snprintf(buf, sizeof buf, "%s_sum %.9f\n", p.c_str(),
                  static_cast<double>(h.total_ns) / 1e9);
    os << buf;
    os << p << "_count " << h.count << "\n";
  }
}

/// One histogram row of the live view: interval count, rate, and
/// interval-exact p50/p99 in microseconds.
void print_hist_row(const std::string& label, const HistogramSnapshot& d,
                    double dt_s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  %-28s %8llu %9.1f/s %10.1f %10.1f\n", label.c_str(),
                static_cast<unsigned long long>(d.count),
                dt_s > 0 ? static_cast<double>(d.count) / dt_s : 0.0,
                d.quantile_ns(0.50) / 1e3, d.quantile_ns(0.99) / 1e3);
  std::cout << buf;
}

/// The live frame: everything the ISSUE's dashboard names, computed
/// from the delta between two snapshots.
void print_frame(const serve::StatsSnapshot& cur,
                 const serve::StatsSnapshot& prev, bool clear_screen) {
  if (clear_screen) std::cout << "\x1b[H\x1b[2J";
  const double dt_s =
      static_cast<double>(cur.wall_ns - prev.wall_ns) / 1e9;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "das_top  uptime %.1fs  interval %.2fs\n",
                static_cast<double>(cur.wall_ns) / 1e9, dt_s);
  std::cout << buf;

  const std::uint64_t responses = delta(cur, prev, "serve.responses");
  const std::uint64_t requests = delta(cur, prev, "serve.requests");
  const std::uint64_t coalesced = delta(cur, prev, "serve.batch.coalesced");
  const std::uint64_t unions = delta(cur, prev, "serve.batch.union_reads");
  const std::uint64_t hits = delta(cur, prev, "io.cache.hits");
  const std::uint64_t misses = delta(cur, prev, "io.cache.misses");
  const double serve_q = gauge_of(cur, "serve.queue.depth", -1.0);
  const double ingest_q = gauge_of(cur, "ingest.queue.depth", -1.0);

  std::snprintf(buf, sizeof buf, "  qps %.1f  queue depth %s%.0f",
                dt_s > 0 ? static_cast<double>(responses) / dt_s : 0.0,
                serve_q >= 0 ? "" : "(ingest) ",
                serve_q >= 0 ? serve_q : ingest_q >= 0 ? ingest_q : 0.0);
  std::cout << buf;
  if (requests > 0) {
    std::snprintf(buf, sizeof buf, "  coalesce %.0f%%  req/union %.1f",
                  100.0 * static_cast<double>(coalesced) /
                      static_cast<double>(requests),
                  unions > 0 ? static_cast<double>(responses) /
                                   static_cast<double>(unions)
                             : 0.0);
    std::cout << buf;
  }
  if (hits + misses > 0) {
    std::snprintf(buf, sizeof buf, "  cache hit %.0f%%",
                  100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses));
    std::cout << buf;
  }
  std::cout << "\n";

  std::cout << "  stage                           count      rate"
               "     p50_us     p99_us\n";
  // The serve pipeline's stage order, then everything else that moved
  // (ingest.file_to_detection, span histograms, ...).
  const char* const pipeline[] = {
      serve::lat::kQueueWait, serve::lat::kCoalesce, serve::lat::kDecode,
      serve::lat::kWrite, serve::lat::kRequest};
  for (const char* name : pipeline) {
    const auto it = cur.hists.find(name);
    if (it == cur.hists.end()) continue;
    const auto pit = prev.hists.find(name);
    const HistogramSnapshot d =
        pit == prev.hists.end() ? it->second : it->second.diff(pit->second);
    print_hist_row(name, d, dt_s);
  }
  for (const auto& [name, h] : cur.hists) {
    bool in_pipeline = false;
    for (const char* p : pipeline) in_pipeline |= name == p;
    if (in_pipeline) continue;
    const auto pit = prev.hists.find(name);
    const HistogramSnapshot d =
        pit == prev.hists.end() ? h : h.diff(pit->second);
    if (d.count == 0) continue;
    print_hist_row(name, d, dt_s);
  }

  if (telemetry::stalled(prev, cur)) {
    std::snprintf(buf, sizeof buf,
                  "  STALL: no counter progress in %.2fs while %.0f "
                  "span(s) open, %.0f request(s) queued\n",
                  dt_s, gauge_of(cur, "trace.open_spans", 0.0),
                  std::max(serve_q, 0.0) + std::max(ingest_q, 0.0));
    std::cout << buf;
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (!args.has("--socket")) {
    std::cerr << "usage: das_top --socket <path> [--interval-ms MS] "
                 "[--count N] [--once] [--prom]\n"
                 "polls a live das_serve (main socket) or das_ingest "
                 "(--stats-socket) via kStats;\n--once prints one "
                 "snapshot (--prom: Prometheus text exposition)\n";
    return 2;
  }
  try {
    serve::Connection conn = serve::connect_local(args.get("--socket"));
    if (args.has("--once")) {
      const serve::StatsSnapshot s = serve::fetch_stats(conn);
      if (args.has("--prom")) {
        write_prometheus(std::cout, s);
      } else {
        print_frame(s, serve::StatsSnapshot{}, false);
      }
      return 0;
    }
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    const long interval_ms = args.get_long("--interval-ms", 1000);
    const long count = args.get_long("--count", 0);
    const bool tty = ::isatty(STDOUT_FILENO) == 1;
    serve::StatsSnapshot prev = serve::fetch_stats(conn);
    for (long i = 0; (count == 0 || i < count) && !g_stop.load(); ++i) {
      for (long waited = 0; waited < interval_ms && !g_stop.load();
           waited += 50) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<long>(50, interval_ms - waited)));
      }
      if (g_stop.load()) break;
      const serve::StatsSnapshot cur = serve::fetch_stats(conn);
      print_frame(cur, prev, tty);
      prev = cur;
    }
    return 0;
  } catch (const std::exception& e) {
    DASSA_SLOG(kError, "top.fail") << e.what();
    return 1;
  }
}
