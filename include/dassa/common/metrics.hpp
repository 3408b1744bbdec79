// DASSA common: the metrics substrate.
//
// The paper's performance arguments are counting arguments -- O(n)
// broadcasts vs O(n/p) exchanges (Section IV-B), 16x fewer I/O calls
// under HAEE (Section VI-C) -- and its figures also need "how long,
// and how skewed". One registry holds every named metric of the
// process: counters (how many), latency histograms (how long) and
// gauges (how full, right now). Cells are created on first use at
// stable addresses and never move, so a hot site resolves its name
// once and keeps the reference; looking up an existing name takes a
// shared lock and does not allocate.
//
// One snapshot type (MetricsSnapshot) captures the whole registry,
// taken by one function (snapshot_metrics). It has one binary codec
// (encode_snapshot / decode_snapshot: the kStats payload and MiniMPI's
// telemetry gather) and one text form (the JSONL timeline,
// telemetry.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"

namespace dassa {

namespace detail {
/// Relaxed CAS loops moving `a` up to (down to) `v`.
inline void raise_to(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void lower_to(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// A monotonic event count: one relaxed atomic, safe from any thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Raise the value to `value` if that is larger. Only for true peaks
  /// (io.cache.peak_bytes, *.queue.peak_depth).
  void high_water(std::uint64_t value) { detail::raise_to(v_, value); }

  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }

  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Non-atomic copy of a histogram for reporting. `count` is always the
/// bucket sum; [min_ns, max_ns] is the observed range (both 0 when the
/// histogram is empty).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  std::array<std::uint64_t, 64> buckets{};  ///< bucket i: [2^i, 2^(i+1)) ns

  /// Quantile in nanoseconds, q in [0, 1]: linear interpolation inside
  /// the landing power-of-two bucket (at most 2x off within it),
  /// clamped to the observed [min_ns, max_ns]. A single sample is
  /// therefore reported exactly. Returns 0 for an empty histogram.
  [[nodiscard]] double quantile_ns(double q) const;

  /// Bucket-wise sum with `other`; the range widens to cover both.
  /// Histograms share the same 64 pow2 bins by construction, so
  /// snapshots from different ranks merge exactly.
  void merge(const HistogramSnapshot& other);

  /// Bucket-exact difference against an `older` snapshot of the same
  /// histogram: what was recorded between the two samples. The range
  /// is the newer snapshot's, which still bounds every sample in the
  /// interval. Guarded against resets: if `older` is not bucket-wise
  /// contained in *this (the process restarted or the registry was
  /// reset between samples), the whole newer snapshot is returned --
  /// everything in it was recorded since -- so a delta can never go
  /// negative.
  [[nodiscard]] HistogramSnapshot diff(const HistogramSnapshot& older) const;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Thread-safe power-of-two latency histogram. The count is the sum of
/// the buckets, so no snapshot can disagree with itself. record_ns()
/// publishes the bucket increment last (release), and snapshot() reads
/// buckets first (acquire): every sample a snapshot counts already has
/// its range and total visible.
class LatencyHistogram {
 public:
  void record_ns(std::uint64_t ns) {
    detail::lower_to(min_ns_, ns);
    detail::raise_to(max_ns_, ns);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t count() const;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Add every bucket of `other` into this histogram (atomic; safe
  /// against concurrent record_ns).
  void merge(const HistogramSnapshot& other);

  void reset();

  /// Bucket index of a duration: floor(log2(ns)), clamped to [0, 63].
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t ns) {
    if (ns <= 1) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(ns));
  }

 private:
  std::array<std::atomic<std::uint64_t>, 64> buckets_{};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> min_ns_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// A gauge is a point-in-time reading (queue depth, cache occupancy)
/// as opposed to a monotonic counter. Gauge functions must be
/// thread-safe: samplers and stats pollers call them.
using GaugeFn = std::function<double()>;

/// Named cells of one kind, created on first use and living (at a
/// stable address) for the owner's lifetime.
template <class Cell>
class NamedCells {
 public:
  Cell& at(std::string_view name) {
    if (Cell* c = find(name)) return *c;
    DASSA_CHECK(!name.empty(), "metric name must be non-empty");
    WriterLock lock(mu_);
    auto& slot = cells_[std::string(name)];
    if (!slot) slot = std::make_unique<Cell>();
    return *slot;
  }

  /// The cell, or nullptr if the name was never used.
  [[nodiscard]] Cell* find(std::string_view name) const {
    ReaderLock lock(mu_);
    const auto it = cells_.find(name);
    return it == cells_.end() ? nullptr : it->second.get();
  }

  template <class F>
  void for_each(F&& f) const {
    ReaderLock lock(mu_);
    for (const auto& [name, cell] : cells_) f(name, *cell);
  }

 private:
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Cell>, std::less<>> cells_
      DASSA_GUARDED_BY(mu_);
};

/// Named counters. A counter that never counted anything is the same
/// as an absent one: get() returns 0 for both and snapshot() lists
/// neither, so reset() (which zeroes cells but keeps their addresses
/// valid for the sites holding them) reads back as empty.
class CounterRegistry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name) {
    return cells_.at(name);
  }
  void add(std::string_view name, std::uint64_t delta = 1) {
    counter(name).add(delta);
  }
  void high_water(std::string_view name, std::uint64_t value) {
    counter(name).high_water(value);
  }
  [[nodiscard]] std::uint64_t get(std::string_view name) const {
    const Counter* c = cells_.find(name);
    return c == nullptr ? 0 : c->get();
  }
  void reset();
  [[nodiscard]] std::map<std::string, std::uint64_t> snapshot() const;

 private:
  NamedCells<Counter> cells_;
};

/// The registry: counters, histograms and gauges of one process.
class MetricsRegistry {
 public:
  [[nodiscard]] CounterRegistry& counters() { return counters_; }
  [[nodiscard]] const CounterRegistry& counters() const { return counters_; }

  [[nodiscard]] LatencyHistogram& histogram(std::string_view name) {
    return hists_.at(name);
  }

  /// Register (or replace, so re-created singletons stay current) the
  /// reader of gauge `name`.
  void register_gauge(std::string_view name, GaugeFn fn);

  /// Read every registered gauge now.
  [[nodiscard]] std::map<std::string, double> read_gauges() const;

  /// Every histogram, by name.
  [[nodiscard]] std::map<std::string, HistogramSnapshot> snapshot() const;

  /// Merge a snapshot map (e.g. another rank's histograms) into this
  /// registry, creating histograms as needed.
  void merge(const std::map<std::string, HistogramSnapshot>& other);

  /// Zero every histogram (names are retained). Pipelines call this
  /// between stages to attribute latencies per stage.
  void reset();

  /// Flat report: every counter, then every histogram with count /
  /// total ms / p50 / p95 / p99.
  void write_report(std::ostream& os) const;

 private:
  /// A replaceable gauge reader.
  struct Gauge {
    mutable Mutex mu;
    GaugeFn fn DASSA_GUARDED_BY(mu);
  };

  CounterRegistry counters_;
  NamedCells<LatencyHistogram> hists_;
  NamedCells<Gauge> gauges_;
};

/// The process registry: trace spans feed its histograms by span name,
/// and it always carries the built-in gauges trace.open_spans,
/// trace.dropped_spans and log.records.
[[nodiscard]] MetricsRegistry& global_metrics();

/// The process registry's counters. Benches reset() them at the start
/// of each experiment.
[[nodiscard]] inline CounterRegistry& global_counters() {
  return global_metrics().counters();
}

/// Everything observable in a registry at one instant. Counters are
/// cumulative, gauges instantaneous, histograms bucket-exact (so two
/// snapshots diff into an interval view with HistogramSnapshot::diff).
/// `wall_ns` is the trace clock at snapshot time -- deltas between two
/// snapshots of one process give the exact sampling interval.
struct MetricsSnapshot {
  std::uint64_t wall_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> hists;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Snapshot the process registry now.
[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Binary format version. A decoder refuses anything else rather than
/// guessing at field layouts. v2 carries each histogram's [min, max].
inline constexpr std::uint32_t kStatsVersion = 2;

/// Ceilings a decoder enforces before allocating: entries per section
/// and bytes per metric name.
inline constexpr std::size_t kMaxStatsEntries = 4096;
inline constexpr std::size_t kMaxStatsNameBytes = 256;

/// The one binary form of a snapshot (little-endian, versioned).
[[nodiscard]] std::vector<std::byte> encode_snapshot(const MetricsSnapshot& s);

/// Strict inverse of encode_snapshot for untrusted bytes. Throws
/// FormatError on a version mismatch, truncation, trailing bytes,
/// oversized or unsorted sections, out-of-order bucket indexes, a
/// histogram count that disagrees with its bucket sum, or a histogram
/// range that is inverted (or non-zero for an empty histogram).
[[nodiscard]] MetricsSnapshot decode_snapshot(std::span<const std::byte> bytes);

}  // namespace dassa
