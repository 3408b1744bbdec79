#include "dassa/common/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>

#include <fstream>
#endif

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "json.hpp"

namespace dassa::telemetry {

// ---------------------------------------------------------------------------
// Resources and gauges
// ---------------------------------------------------------------------------

ResourceUsage sample_resources() {
  ResourceUsage res;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB (macOS in bytes; we only gate on
    // the Linux convention since that is the deployment target).
    res.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
    const auto tv_ns = [](const timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000u +
             static_cast<std::uint64_t>(tv.tv_usec) * 1'000u;
    };
    res.user_cpu_ns = tv_ns(ru.ru_utime);
    res.sys_cpu_ns = tv_ns(ru.ru_stime);
  }
#endif
#if defined(__linux__)
  // statm field 2 is resident pages; cheaper than parsing /proc/self/status.
  if (std::ifstream statm("/proc/self/statm"); statm.good()) {
    std::uint64_t total_pages = 0;
    std::uint64_t resident_pages = 0;
    if (statm >> total_pages >> resident_pages) {
      res.rss_bytes = resident_pages *
                      static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    }
  }
#endif
  return res;
}

bool stalled(const MetricsSnapshot& prev, const MetricsSnapshot& cur) {
  DASSA_CHECK(cur.wall_ns >= prev.wall_ns,
              "stall check needs two snapshots in time order");
  for (const auto& [name, value] : cur.counters) {
    if (name == counters::kTelemetrySamples || name.starts_with("stats.")) {
      continue;
    }
    const auto it = prev.counters.find(name);
    if (it == prev.counters.end() || value != it->second) return false;
  }
  const auto gauge = [&cur](const char* name) {
    const auto it = cur.gauges.find(name);
    return it == cur.gauges.end() ? 0.0 : it->second;
  };
  return gauge("trace.open_spans") > 0 || gauge("serve.queue.depth") > 0 ||
         gauge("ingest.queue.depth") > 0;
}

// ---------------------------------------------------------------------------
// TelemetrySampler
// ---------------------------------------------------------------------------

TelemetrySampler::TelemetrySampler(SamplerConfig cfg) : cfg_(cfg) {
  DASSA_CHECK(cfg_.period.count() > 0, "sampler period must be positive");
  DASSA_CHECK(cfg_.max_samples > 0, "sampler max_samples must be positive");
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  MutexLock lock(mu_);
  DASSA_CHECK(!running_, "sampler already started");
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void TelemetrySampler::stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  MutexLock lock(mu_);
  running_ = false;
}

bool TelemetrySampler::running() const {
  MutexLock lock(mu_);
  return running_;
}

void TelemetrySampler::tick() {
  // One ticker at a time, snapshot through append: without this, a
  // manual tick() racing the background loop could snapshot earlier
  // counter values but win the race for the later seq, producing a
  // timeline (and JSONL stream) that violates the monotone-counter
  // invariant validate_stream enforces.
  MutexLock tick_lock(tick_mu_);

  // Charge the sample counter first so the sample we are about to take
  // already reflects it -- keeps "telemetry.samples == seq + 1"
  // invariant the deterministic test pins.
  global_counters().add(counters::kTelemetrySamples);

  Sample s;
  static_cast<MetricsSnapshot&>(s) = snapshot_metrics();
  s.res = sample_resources();
  for (const auto& [name, h] : s.hists) {
    if (h.count == 0) continue;
    const std::string base = "hist." + name;
    s.gauges[base + ".count"] = static_cast<double>(h.count);
    s.gauges[base + ".p50_ns"] = h.quantile_ns(0.50);
    s.gauges[base + ".p95_ns"] = h.quantile_ns(0.95);
    s.gauges[base + ".p99_ns"] = h.quantile_ns(0.99);
  }
  s.hists.clear();

  MutexLock lock(mu_);
  if (samples_.size() >= cfg_.max_samples) {
    ++dropped_;
    return;
  }
  s.seq = next_seq_++;
  samples_.push_back(std::move(s));
}

std::vector<Sample> TelemetrySampler::timeline() const {
  MutexLock lock(mu_);
  return samples_;
}

std::uint64_t TelemetrySampler::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void TelemetrySampler::run_loop() {
  while (true) {
    const auto deadline = std::chrono::steady_clock::now() + cfg_.period;
    {
      MutexLock lock(mu_);
      while (!stop_requested_) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      if (stop_requested_) return;
    }
    tick();
  }
}

// ---------------------------------------------------------------------------
// JSONL writer
// ---------------------------------------------------------------------------

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_value(std::string& out, std::uint64_t v) { append_u64(out, v); }
void append_value(std::string& out, double v) { append_double(out, v); }

/// A counter or gauge map as one JSON object.
template <class Value>
void append_map(std::string& out, const std::map<std::string, Value>& m) {
  out += '{';
  for (const auto& [k, v] : m) {
    if (out.back() != '{') out += ',';
    jsonio::escape(out, k);
    out += ':';
    append_value(out, v);
  }
  out += '}';
}

}  // namespace

void write_telemetry_file(std::ostream& os, const TelemetryFile& file) {
  DASSA_CHECK(os.good(), "telemetry output stream is not writable");
  std::string line;

  line += "{\"type\":\"meta\",\"schema\":";
  jsonio::escape(line, kSchemaVersion);
  for (const auto& [k, v] : file.meta) {
    if (k == "schema") continue;  // the writer owns the schema stamp
    line += ',';
    jsonio::escape(line, k);
    line += ':';
    jsonio::escape(line, v);
  }
  line += "}\n";
  os << line;

  for (const Sample& s : file.samples) {
    line.clear();
    line += "{\"type\":\"sample\",\"seq\":";
    append_u64(line, s.seq);
    line += ",\"wall_ns\":";
    append_u64(line, s.wall_ns);
    line += ",\"rss_bytes\":";
    append_u64(line, s.res.rss_bytes);
    line += ",\"peak_rss_bytes\":";
    append_u64(line, s.res.peak_rss_bytes);
    line += ",\"user_cpu_ns\":";
    append_u64(line, s.res.user_cpu_ns);
    line += ",\"sys_cpu_ns\":";
    append_u64(line, s.res.sys_cpu_ns);
    line += ",\"counters\":";
    append_map(line, s.counters);
    line += ",\"gauges\":";
    append_map(line, s.gauges);
    line += "}\n";
    os << line;
  }

  for (const StageRecord& st : file.stages) {
    line.clear();
    line += "{\"type\":\"stage\",\"name\":";
    jsonio::escape(line, st.name);
    line += ",\"seconds\":";
    append_double(line, st.seconds);
    line += ",\"bytes\":";
    append_u64(line, st.bytes);
    line += ",\"rows\":";
    append_u64(line, st.rows);
    line += "}\n";
    os << line;
  }

  for (const RankRecord& r : file.ranks) {
    line.clear();
    line += "{\"type\":\"rank\",\"rank\":";
    line += std::to_string(r.rank);
    line += ",\"counters\":";
    append_map(line, r.counters);
    line += "}\n";
    os << line;
  }

  for (const AggRecord& a : file.aggs) {
    line.clear();
    line += "{\"type\":\"agg\",\"counter\":";
    jsonio::escape(line, a.counter);
    line += ",\"sum\":";
    append_u64(line, a.sum);
    line += ",\"min\":";
    append_u64(line, a.min);
    line += ",\"max\":";
    append_u64(line, a.max);
    line += ",\"min_rank\":";
    line += std::to_string(a.min_rank);
    line += ",\"max_rank\":";
    line += std::to_string(a.max_rank);
    line += ",\"imbalance\":";
    append_double(line, a.imbalance);
    line += "}\n";
    os << line;
  }

  for (const HistRecord& h : file.hists) {
    line.clear();
    line += "{\"type\":\"hist\",\"name\":";
    jsonio::escape(line, h.name);
    line += ",\"count\":";
    append_u64(line, h.count);
    line += ",\"total_ns\":";
    append_u64(line, h.total_ns);
    line += ",\"p50_ns\":";
    append_double(line, h.p50_ns);
    line += ",\"p95_ns\":";
    append_double(line, h.p95_ns);
    line += ",\"p99_ns\":";
    append_double(line, h.p99_ns);
    line += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i != 0) line += ',';
      append_u64(line, h.buckets[i]);
    }
    line += "]}\n";
    os << line;
  }
  os.flush();
}

// ---------------------------------------------------------------------------
// JSONL parser
// ---------------------------------------------------------------------------

namespace {

using JsonValue = jsonio::JsonReader::Value;
using VT = JsonValue::Type;

[[noreturn]] void line_fail(std::size_t line_no, const std::string& why) {
  throw FormatError("telemetry line " + std::to_string(line_no) + ": " + why);
}

const JsonValue& require(const JsonValue& rec, const char* key, VT type,
                         std::size_t line_no) {
  const JsonValue* v = rec.find(key);
  if (v == nullptr || v->type != type) {
    line_fail(line_no, std::string("missing required field '") + key + "'");
  }
  return *v;
}

std::uint64_t require_u64(const JsonValue& rec, const char* key,
                          std::size_t line_no) {
  const double d = require(rec, key, VT::kNumber, line_no).number;
  if (d < 0) {
    line_fail(line_no, std::string("field '") + key + "' is negative");
  }
  return static_cast<std::uint64_t>(d);
}

std::map<std::string, std::uint64_t> require_counter_map(
    const JsonValue& rec, const char* key, std::size_t line_no) {
  const JsonValue& obj = require(rec, key, VT::kObject, line_no);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : obj.obj) {
    if (v.type != VT::kNumber || v.number < 0) {
      line_fail(line_no, "counter '" + k + "' is not a non-negative number");
    }
    out.emplace(k, static_cast<std::uint64_t>(v.number));
  }
  return out;
}

}  // namespace

TelemetryFile parse_telemetry_jsonl(const std::string& text) {
  DASSA_CHECK(!text.empty(), "empty telemetry document");
  TelemetryFile file;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    JsonValue rec;
    try {
      rec = jsonio::JsonReader(line).parse();
    } catch (const FormatError& e) {
      line_fail(line_no, e.what());
    }
    if (rec.type != VT::kObject) line_fail(line_no, "record is not an object");
    const std::string& type = require(rec, "type", VT::kString, line_no).str;

    if (type == "meta") {
      for (const auto& [k, v] : rec.obj) {
        if (k == "type") continue;
        if (v.type != VT::kString) {
          line_fail(line_no, "meta field '" + k + "' is not a string");
        }
        file.meta[k] = v.str;
      }
    } else if (type == "sample") {
      Sample s;
      s.seq = require_u64(rec, "seq", line_no);
      s.wall_ns = require_u64(rec, "wall_ns", line_no);
      s.res.rss_bytes = require_u64(rec, "rss_bytes", line_no);
      s.res.peak_rss_bytes = require_u64(rec, "peak_rss_bytes", line_no);
      s.res.user_cpu_ns = require_u64(rec, "user_cpu_ns", line_no);
      s.res.sys_cpu_ns = require_u64(rec, "sys_cpu_ns", line_no);
      s.counters = require_counter_map(rec, "counters", line_no);
      for (const auto& [k, v] :
           require(rec, "gauges", VT::kObject, line_no).obj) {
        if (v.type != VT::kNumber) {
          line_fail(line_no, "gauge '" + k + "' is not a number");
        }
        s.gauges.emplace(k, v.number);
      }
      file.samples.push_back(std::move(s));
    } else if (type == "stage") {
      StageRecord st;
      st.name = require(rec, "name", VT::kString, line_no).str;
      st.seconds = require(rec, "seconds", VT::kNumber, line_no).number;
      st.bytes = require_u64(rec, "bytes", line_no);
      st.rows = require_u64(rec, "rows", line_no);
      file.stages.push_back(std::move(st));
    } else if (type == "rank") {
      RankRecord r;
      r.rank =
          static_cast<int>(require(rec, "rank", VT::kNumber, line_no).number);
      r.counters = require_counter_map(rec, "counters", line_no);
      file.ranks.push_back(std::move(r));
    } else if (type == "agg") {
      AggRecord a;
      a.counter = require(rec, "counter", VT::kString, line_no).str;
      a.sum = require_u64(rec, "sum", line_no);
      a.min = require_u64(rec, "min", line_no);
      a.max = require_u64(rec, "max", line_no);
      a.min_rank = static_cast<int>(
          require(rec, "min_rank", VT::kNumber, line_no).number);
      a.max_rank = static_cast<int>(
          require(rec, "max_rank", VT::kNumber, line_no).number);
      a.imbalance = require(rec, "imbalance", VT::kNumber, line_no).number;
      file.aggs.push_back(std::move(a));
    } else if (type == "hist") {
      HistRecord h;
      h.name = require(rec, "name", VT::kString, line_no).str;
      h.count = require_u64(rec, "count", line_no);
      h.total_ns = require_u64(rec, "total_ns", line_no);
      h.p50_ns = require(rec, "p50_ns", VT::kNumber, line_no).number;
      h.p95_ns = require(rec, "p95_ns", VT::kNumber, line_no).number;
      h.p99_ns = require(rec, "p99_ns", VT::kNumber, line_no).number;
      const JsonValue& buckets =
          require(rec, "buckets", VT::kArray, line_no);
      if (buckets.arr.size() != h.buckets.size()) {
        line_fail(line_no, "hist must carry exactly 64 buckets");
      }
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (buckets.arr[i].type != VT::kNumber || buckets.arr[i].number < 0) {
          line_fail(line_no, "hist bucket is not a non-negative number");
        }
        h.buckets[i] = static_cast<std::uint64_t>(buckets.arr[i].number);
      }
      file.hists.push_back(std::move(h));
    } else {
      line_fail(line_no, "unknown record type '" + type + "'");
    }
  }
  return file;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void validate_telemetry_file(const TelemetryFile& file) {
  const auto it = file.meta.find("schema");
  if (it == file.meta.end()) {
    throw FormatError("telemetry file has no meta/schema record");
  }
  if (it->second != kSchemaVersion) {
    throw FormatError("unsupported telemetry schema '" + it->second + "'");
  }

  // Samples: contiguous sequence, monotone clock, monotone counters.
  std::map<std::string, std::uint64_t> prev_counters;
  std::uint64_t prev_wall = 0;
  for (std::size_t i = 0; i < file.samples.size(); ++i) {
    const Sample& s = file.samples[i];
    if (s.seq != i) {
      throw FormatError("sample " + std::to_string(i) +
                        " has seq " + std::to_string(s.seq) +
                        " (sequence must be contiguous from 0)");
    }
    if (i > 0 && s.wall_ns < prev_wall) {
      throw FormatError("sample " + std::to_string(i) +
                        " goes backwards in time");
    }
    prev_wall = s.wall_ns;
    for (const auto& [name, value] : s.counters) {
      const auto prev = prev_counters.find(name);
      if (prev != prev_counters.end() && value < prev->second) {
        throw FormatError("counter '" + name + "' decreases at sample " +
                          std::to_string(i));
      }
      prev_counters[name] = value;
    }
  }

  for (const StageRecord& st : file.stages) {
    if (st.name.empty()) throw FormatError("stage record has empty name");
    if (st.seconds < 0) {
      throw FormatError("stage '" + st.name + "' has negative duration");
    }
  }

  // Histograms: the count must equal the bucket sum, exactly.
  for (const HistRecord& h : file.hists) {
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : h.buckets) bucket_sum += b;
    if (bucket_sum != h.count) {
      throw FormatError("hist '" + h.name + "' count " +
                        std::to_string(h.count) +
                        " != bucket sum " + std::to_string(bucket_sum));
    }
  }

  // Aggregates: exactly consistent with the per-rank records. This is
  // the acceptance criterion with teeth -- the imbalance table cannot
  // drift from the per-rank totals it claims to summarize.
  for (const AggRecord& a : file.aggs) {
    if (file.ranks.empty()) {
      throw FormatError("agg '" + a.counter + "' with no rank records");
    }
    std::uint64_t sum = 0;
    std::uint64_t mn = 0;
    std::uint64_t mx = 0;
    int mn_rank = 0;
    int mx_rank = 0;
    bool first = true;
    for (const RankRecord& r : file.ranks) {
      const auto rit = r.counters.find(a.counter);
      const std::uint64_t v = rit == r.counters.end() ? 0 : rit->second;
      sum += v;
      if (first || v < mn) {
        mn = v;
        mn_rank = r.rank;
      }
      if (first || v > mx) {
        mx = v;
        mx_rank = r.rank;
      }
      first = false;
    }
    if (a.sum != sum || a.min != mn || a.max != mx) {
      throw FormatError("agg '" + a.counter +
                        "' disagrees with the rank records (sum " +
                        std::to_string(a.sum) + " vs " + std::to_string(sum) +
                        ", min " + std::to_string(a.min) + " vs " +
                        std::to_string(mn) + ", max " + std::to_string(a.max) +
                        " vs " + std::to_string(mx) + ")");
    }
    if (a.min_rank != mn_rank || a.max_rank != mx_rank) {
      throw FormatError("agg '" + a.counter +
                        "' names wrong extreme ranks");
    }
  }
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

namespace {

std::uint64_t final_counter(const TelemetryFile& file,
                            const std::string& name) {
  if (file.samples.empty()) return 0;
  const auto& counters = file.samples.back().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

void write_health_report(std::ostream& os, const TelemetryFile& file) {
  DASSA_CHECK(os.good(), "health report stream is not writable");
  char buf[256];

  os << "== dassa pipeline health (" << kSchemaVersion << ") ==\n";
  for (const auto& [k, v] : file.meta) {
    if (k == "schema") continue;
    os << "  " << k << " = " << v << "\n";
  }

  if (!file.stages.empty()) {
    double total_s = 0.0;
    for (const StageRecord& st : file.stages) total_s += st.seconds;
    os << "\nstages:\n";
    os << "  stage        seconds   share      MB/s        rows/s\n";
    for (const StageRecord& st : file.stages) {
      const double share = total_s > 0 ? st.seconds / total_s * 100.0 : 0.0;
      const double mbs = st.seconds > 0
                             ? static_cast<double>(st.bytes) / 1e6 / st.seconds
                             : 0.0;
      const double rps =
          st.seconds > 0 ? static_cast<double>(st.rows) / st.seconds : 0.0;
      std::snprintf(buf, sizeof buf,
                    "  %-10s %9.3f  %5.1f%%  %8.1f  %12.1f\n",
                    st.name.c_str(), st.seconds, share, mbs, rps);
      os << buf;
    }
  }

  if (!file.samples.empty()) {
    const Sample& last = file.samples.back();
    std::snprintf(buf, sizeof buf,
                  "\nresources (final of %zu samples):\n"
                  "  rss=%.1f MiB peak_rss=%.1f MiB user_cpu=%.2fs "
                  "sys_cpu=%.2fs\n",
                  file.samples.size(),
                  static_cast<double>(last.res.rss_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(last.res.peak_rss_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(last.res.user_cpu_ns) / 1e9,
                  static_cast<double>(last.res.sys_cpu_ns) / 1e9);
    os << buf;

    const std::uint64_t hits = final_counter(file, "io.cache.hits");
    const std::uint64_t misses = final_counter(file, "io.cache.misses");
    const std::uint64_t raw = final_counter(file, "io.codec.bytes_raw");
    const std::uint64_t stored = final_counter(file, "io.codec.bytes_stored");
    if (hits + misses > 0 || stored > 0) {
      os << "\nefficiency:\n";
      if (hits + misses > 0) {
        std::snprintf(buf, sizeof buf,
                      "  cache hit ratio: %.1f%% (%" PRIu64 " hits / %" PRIu64
                      " lookups)\n",
                      static_cast<double>(hits) /
                          static_cast<double>(hits + misses) * 100.0,
                      hits, hits + misses);
        os << buf;
      }
      if (stored > 0) {
        std::snprintf(buf, sizeof buf,
                      "  codec ratio: %.2fx (%" PRIu64 " raw -> %" PRIu64
                      " stored bytes)\n",
                      static_cast<double>(raw) / static_cast<double>(stored),
                      raw, stored);
        os << buf;
      }
    }
  }

  if (!file.aggs.empty()) {
    os << "\nrank balance (" << file.ranks.size() << " ranks):\n";
    os << "  counter                        sum        min(rank)"
       << "        max(rank)  imbalance\n";
    for (const AggRecord& a : file.aggs) {
      std::snprintf(buf, sizeof buf,
                    "  %-24s %10" PRIu64 " %10" PRIu64 " (r%d) %10" PRIu64
                    " (r%d)      %5.2fx\n",
                    a.counter.c_str(), a.sum, a.min, a.min_rank, a.max,
                    a.max_rank, a.imbalance);
      os << buf;
    }
  }

  if (!file.hists.empty()) {
    os << "\nlatency (cluster-merged):\n";
    os << "  span                                  count     p50_us"
       << "     p95_us     p99_us\n";
    for (const HistRecord& h : file.hists) {
      std::snprintf(buf, sizeof buf,
                    "  %-36s %6" PRIu64 " %10.1f %10.1f %10.1f\n",
                    h.name.c_str(), h.count, h.p50_ns / 1e3, h.p95_ns / 1e3,
                    h.p99_ns / 1e3);
      os << buf;
    }
  }

  std::size_t stalls = 0;
  for (std::size_t i = 1; i < file.samples.size(); ++i) {
    const Sample& prev = file.samples[i - 1];
    const Sample& cur = file.samples[i];
    if (!stalled(prev, cur)) continue;
    ++stalls;
    std::snprintf(buf, sizeof buf,
                  "WARNING: stall: no counter progress in sample interval "
                  "%zu -> %zu (%.1f ms) with work in flight\n",
                  i - 1, i,
                  static_cast<double>(cur.wall_ns - prev.wall_ns) / 1e6);
    os << buf;
  }
  if (stalls == 0 && file.samples.size() > 1) {
    os << "\nno stalls detected across "
       << file.samples.size() - 1 << " sample intervals\n";
  }
}

}  // namespace dassa::telemetry
