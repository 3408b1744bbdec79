#include "dassa/common/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

#include "dassa/common/log.hpp"
#include "dassa/common/trace.hpp"
#include "serialize.hpp"

namespace dassa {

double HistogramSnapshot::quantile_ns(double q) const {
  DASSA_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  double estimate = std::ldexp(1.0, 63);  // everything in the top bucket
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate linearly inside the power-of-two bucket
      // [2^i, 2^(i+1)): bucket 0 also holds 0 ns and 1 ns durations.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      const double frac = std::clamp((target - seen) / in_bucket, 0.0, 1.0);
      estimate = lo + (hi - lo) * frac;
      break;
    }
    seen += in_bucket;
  }
  return std::clamp(estimate, static_cast<double>(min_ns),
                    static_cast<double>(max_ns));
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  DASSA_CHECK(count <= std::numeric_limits<std::uint64_t>::max() - other.count,
              "histogram merge would overflow the sample count");
  if (other.count == 0) return;
  min_ns = count == 0 ? other.min_ns : std::min(min_ns, other.min_ns);
  max_ns = count == 0 ? other.max_ns : std::max(max_ns, other.max_ns);
  count += other.count;
  total_ns += other.total_ns;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

namespace {

/// Reset-guard containment test: a live histogram only ever grows, so
/// an "older" snapshot with more in any field than the newer one means
/// the process (or registry) was reset between the two samples.
bool check_reset_between(const HistogramSnapshot& newer,
                         const HistogramSnapshot& older) {
  if (older.count > newer.count || older.total_ns > newer.total_ns) {
    return true;
  }
  for (std::size_t i = 0; i < newer.buckets.size(); ++i) {
    if (older.buckets[i] > newer.buckets[i]) return true;
  }
  return false;
}

}  // namespace

HistogramSnapshot HistogramSnapshot::diff(
    const HistogramSnapshot& older) const {
  // After a reset the newer snapshot IS the delta: everything in it
  // was recorded since, and a delta must never go negative.
  if (check_reset_between(*this, older)) return *this;
  HistogramSnapshot d = *this;
  d.count -= older.count;
  d.total_ns -= older.total_ns;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    d.buckets[i] -= older.buckets[i];
  }
  if (d.count == 0) d.min_ns = d.max_ns = 0;
  return d;
}

std::uint64_t LatencyHistogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_acquire);
    s.count += s.buckets[i];
  }
  s.total_ns = total_ns_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min_ns = min_ns_.load(std::memory_order_relaxed);
    s.max_ns = max_ns_.load(std::memory_order_relaxed);
    // Only a reset() racing record_ns() leaves the range behind the
    // buckets; report it as unbounded rather than inverted.
    if (s.min_ns > s.max_ns) {
      s.min_ns = 0;
      s.max_ns = std::numeric_limits<std::uint64_t>::max();
    }
  }
  return s;
}

void LatencyHistogram::merge(const HistogramSnapshot& other) {
  DASSA_CHECK(
      count() <= std::numeric_limits<std::uint64_t>::max() - other.count,
      "histogram merge would overflow the sample count");
  if (other.count == 0) return;
  detail::lower_to(min_ns_, other.min_ns);
  detail::raise_to(max_ns_, other.max_ns);
  total_ns_.fetch_add(other.total_ns, std::memory_order_relaxed);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    if (other.buckets[i] != 0) {
      buckets_[i].fetch_add(other.buckets[i], std::memory_order_release);
    }
  }
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(std::numeric_limits<std::uint64_t>::max(),
                std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

void CounterRegistry::reset() {
  cells_.for_each([](const std::string&, Counter& c) { c.reset(); });
}

std::map<std::string, std::uint64_t> CounterRegistry::snapshot() const {
  std::map<std::string, std::uint64_t> out;
  cells_.for_each([&out](const std::string& name, const Counter& c) {
    if (const std::uint64_t v = c.get(); v != 0) out.emplace(name, v);
  });
  return out;
}

void MetricsRegistry::register_gauge(std::string_view name, GaugeFn fn) {
  DASSA_CHECK(static_cast<bool>(fn), "gauge function must be callable");
  Gauge& g = gauges_.at(name);
  MutexLock lock(g.mu);
  g.fn = std::move(fn);
}

std::map<std::string, double> MetricsRegistry::read_gauges() const {
  std::map<std::string, GaugeFn> fns;
  gauges_.for_each([&fns](const std::string& name, const Gauge& g) {
    MutexLock lock(g.mu);
    if (g.fn) fns.emplace(name, g.fn);
  });
  // Call outside the locks: a gauge may itself take locks (queue
  // depth, cache occupancy) and must not order against registration.
  std::map<std::string, double> out;
  for (const auto& [name, fn] : fns) out.emplace(name, fn());
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::snapshot() const {
  std::map<std::string, HistogramSnapshot> out;
  hists_.for_each([&out](const std::string& name, const LatencyHistogram& h) {
    out.emplace(name, h.snapshot());
  });
  return out;
}

void MetricsRegistry::merge(
    const std::map<std::string, HistogramSnapshot>& other) {
  for (const auto& [name, snap] : other) {
    DASSA_CHECK(!name.empty(), "merged histogram name must be non-empty");
    histogram(name).merge(snap);
  }
}

void MetricsRegistry::reset() {
  hists_.for_each([](const std::string&, LatencyHistogram& h) { h.reset(); });
}

void MetricsRegistry::write_report(std::ostream& os) const {
  DASSA_CHECK(os.good(), "metrics report stream is not writable");
  for (const auto& [name, value] : counters_.snapshot()) {
    os << "  " << name << " = " << value << "\n";
  }
  for (const auto& [name, h] : snapshot()) {
    if (h.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %s: count=%llu total_ms=%.3f p50_us=%.1f p95_us=%.1f "
                  "p99_us=%.1f",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<double>(h.total_ns) / 1e6,
                  h.quantile_ns(0.50) / 1e3, h.quantile_ns(0.95) / 1e3,
                  h.quantile_ns(0.99) / 1e3);
    os << line << "\n";
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry reg;
  static const bool builtins = [] {
    // The stall rule keys off open spans; the other two are cheap
    // health reads every snapshot should carry.
    reg.register_gauge("trace.open_spans", [] {
      return static_cast<double>(trace::open_spans());
    });
    reg.register_gauge("trace.dropped_spans", [] {
      return static_cast<double>(trace::dropped_spans());
    });
    reg.register_gauge("log.records", [] {
      return static_cast<double>(log_records_emitted());
    });
    return true;
  }();
  (void)builtins;
  return reg;
}

MetricsSnapshot snapshot_metrics() {
  MetricsRegistry& reg = global_metrics();
  MetricsSnapshot s;
  s.wall_ns = trace::detail::now_ns();
  s.counters = reg.counters().snapshot();
  s.gauges = reg.read_gauges();
  s.hists = reg.snapshot();
  return s;
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

namespace {

void put_count(detail::Encoder& enc, std::size_t n) {
  DASSA_CHECK(n <= kMaxStatsEntries,
              "metrics snapshot exceeds the wire-format entry ceiling");
  enc.u32(static_cast<std::uint32_t>(n));
}

/// Section-entry count read with its ceiling enforced before any
/// allocation sized from it.
std::size_t get_count(detail::Decoder& dec) {
  const std::uint32_t n = dec.u32();
  if (n > kMaxStatsEntries) {
    throw FormatError("stats section entry count exceeds ceiling");
  }
  return n;
}

/// Metric names arrive sorted (the encoder walks std::map); enforcing
/// strict ascent rejects duplicates and forged orderings in one check.
std::string get_name(detail::Decoder& dec, const std::string& prev) {
  std::string name = dec.str();
  if (name.empty() || name.size() > kMaxStatsNameBytes) {
    throw FormatError("stats metric name length out of bounds");
  }
  if (!prev.empty() && name <= prev) {
    throw FormatError("stats metric names not strictly increasing");
  }
  return name;
}

template <class Value, class Put>
void put_section(detail::Encoder& enc, const std::map<std::string, Value>& m,
                 Put&& put) {
  put_count(enc, m.size());
  for (const auto& [name, value] : m) {
    enc.str(name);
    put(value);
  }
}

template <class Value, class Get>
void get_section(detail::Decoder& dec, std::map<std::string, Value>& m,
                 Get&& get) {
  std::string prev;
  for (std::size_t n = get_count(dec); n > 0; --n) {
    std::string name = get_name(dec, prev);
    prev = name;
    m.emplace(std::move(name), get());
  }
}

HistogramSnapshot get_histogram(detail::Decoder& dec) {
  HistogramSnapshot h;
  h.count = dec.u64();
  h.total_ns = dec.u64();
  h.min_ns = dec.u64();
  h.max_ns = dec.u64();
  if (h.count == 0 ? (h.min_ns != 0 || h.max_ns != 0) : h.min_ns > h.max_ns) {
    throw FormatError("stats histogram range is inconsistent");
  }
  const std::uint8_t nonzero = dec.u8();
  if (nonzero > h.buckets.size()) {
    throw FormatError("stats histogram bucket entry count out of range");
  }
  std::uint64_t sum = 0;
  int prev_index = -1;
  for (std::uint8_t i = 0; i < nonzero; ++i) {
    const std::uint8_t index = dec.u8();
    if (index >= h.buckets.size() || static_cast<int>(index) <= prev_index) {
      throw FormatError("stats histogram bucket index out of order");
    }
    prev_index = static_cast<int>(index);
    const std::uint64_t bucket = dec.u64();
    if (bucket == 0 || bucket > h.count - sum) {
      // A zero entry contradicts the sparse encoding; an oversized one
      // would push the bucket sum past the declared count (subtraction
      // form so the running sum cannot wrap).
      throw FormatError("stats histogram buckets disagree with count");
    }
    sum += bucket;
    h.buckets[index] = bucket;
  }
  if (sum != h.count) {
    throw FormatError("stats histogram buckets disagree with count");
  }
  return h;
}

}  // namespace

std::vector<std::byte> encode_snapshot(const MetricsSnapshot& s) {
  detail::Encoder enc;
  enc.u32(kStatsVersion);
  enc.u64(s.wall_ns);
  put_section(enc, s.counters, [&](std::uint64_t v) { enc.u64(v); });
  put_section(enc, s.gauges,
              [&](double v) { enc.u64(std::bit_cast<std::uint64_t>(v)); });
  put_section(enc, s.hists, [&](const HistogramSnapshot& h) {
    enc.u64(h.count);
    enc.u64(h.total_ns);
    enc.u64(h.min_ns);
    enc.u64(h.max_ns);
    const auto nonzero = static_cast<std::uint8_t>(
        std::count_if(h.buckets.begin(), h.buckets.end(),
                      [](std::uint64_t b) { return b != 0; }));
    enc.u8(nonzero);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      enc.u8(static_cast<std::uint8_t>(i));
      enc.u64(h.buckets[i]);
    }
  });
  return enc.bytes();
}

MetricsSnapshot decode_snapshot(std::span<const std::byte> bytes) {
  detail::Decoder dec(bytes);
  if (dec.u32() != kStatsVersion) {
    throw FormatError("unsupported stats snapshot version");
  }
  MetricsSnapshot s;
  s.wall_ns = dec.u64();
  get_section(dec, s.counters, [&] { return dec.u64(); });
  get_section(dec, s.gauges,
              [&] { return std::bit_cast<double>(dec.u64()); });
  get_section(dec, s.hists, [&] { return get_histogram(dec); });
  if (dec.position() != bytes.size()) {
    throw FormatError("trailing bytes after stats message");
  }
  return s;
}

}  // namespace dassa
