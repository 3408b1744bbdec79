// DASSA common: structured span tracing (docs/OBSERVABILITY.md).
//
// The paper's headline claims are wall-clock claims -- collective-per-
// file vs communication-avoiding reads (Fig. 7), HAEE hybrid scaling
// (Figs. 8-11) -- and flat counters cannot say *where* a run spends its
// time. The tracer records begin/end spans into thread-local ring
// buffers (zero allocation in steady state) behind one runtime toggle
// that compiles down to a relaxed load + branch when tracing is off,
// so the instrumentation can stay on the hot DSP and I/O paths
// permanently.
//
// Spans are emitted ONLY through DASSA_TRACE_SPAN (enforced by
// das_lint's trace-span-macro rule). Names and categories must be
// string literals: the ring stores the pointers, never copies.
//
// Collection merges every thread's buffer -- MiniMPI rank threads are
// labeled by Runtime::run, ApplyMT pool workers inherit their creating
// rank -- into one time-ordered trace, exportable as chrome://tracing
// JSON ("B"/"E" pairs, one process lane per rank) or as a flat
// per-span summary with p50/p95/p99 latency quantiles drawn from the
// metrics registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dassa::trace {

/// One completed span, in collection order units: nanoseconds since
/// the process trace epoch. `name`/`cat` point at the string literals
/// passed to DASSA_TRACE_SPAN.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  int rank = -1;       ///< MiniMPI rank, -1 outside any rank
  std::uint32_t tid = 0;  ///< process-unique small thread id
};

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<std::int64_t> g_open_spans;
[[nodiscard]] std::uint64_t now_ns();
void emit_span(const char* cat, const char* name, std::uint64_t start_ns,
               std::uint64_t end_ns);
}  // namespace detail

/// Master switch. Off (the default) every DASSA_TRACE_SPAN is a single
/// relaxed atomic load and a branch; no clock reads, no buffer writes.
void set_enabled(bool enabled);
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Label the calling thread's spans with a MiniMPI rank (chrome export
/// groups lanes by rank). Runtime::run sets this for rank threads;
/// ThreadPool workers inherit the rank of the thread that built the
/// pool. -1 means "no rank".
void set_thread_rank(int rank);
[[nodiscard]] int thread_rank();

/// Ring capacity (spans per thread) for buffers created after the
/// call. Existing buffers keep their capacity. The default is
/// kDefaultRingCapacity; tests shrink it to exercise the drop path.
void set_ring_capacity(std::size_t spans);
inline constexpr std::size_t kDefaultRingCapacity = 1u << 15;

/// Snapshot every thread's buffer into one trace ordered by
/// (rank, tid, start). Does not consume the events; clear() does.
[[nodiscard]] std::vector<TraceEvent> collect();

/// Drop all recorded spans (buffer memory is retained, and buffers of
/// finished threads are released).
void clear();

/// Spans dropped because a thread's ring filled (newest-dropped).
[[nodiscard]] std::uint64_t dropped_spans();

/// Spans currently open (entered but not yet exited) across all
/// threads. Only counted while tracing is enabled; the telemetry
/// sampler reads this to flag stalls (zero counter progress while work
/// is nominally in flight).
[[nodiscard]] inline std::uint64_t open_spans() {
  const std::int64_t n = detail::g_open_spans.load(std::memory_order_relaxed);
  return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

// ---- exporters -------------------------------------------------------

/// chrome://tracing JSON ("traceEvents" array of balanced "B"/"E"
/// pairs plus "M" process-name metadata; pid = rank + 1, 0 = unranked).
/// Load the output via chrome://tracing or https://ui.perfetto.dev.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events);

/// Flat per-span-name summary: count, total wall, and p50/p95/p99
/// drawn from the global metrics histograms (falls back to exact
/// quantiles over `events` for spans with no histogram).
void write_summary(std::ostream& os, const std::vector<TraceEvent>& events);

namespace detail {
/// One write_summary row: name, category, count, total ms, then
/// p50/p95/p99 in microseconds, each column separated by at least one
/// space however wide its value.
void write_summary_row(std::ostream& os, const std::string& name,
                       const std::string& cat, std::uint64_t count,
                       double total_ms, double p50_us, double p95_us,
                       double p99_us);
}  // namespace detail

// ---- chrome-trace inspection (das_trace, schema tests) ---------------

/// One parsed chrome-trace event (subset of fields DASSA emits).
struct ChromeEvent {
  std::string name;
  std::string cat;
  std::string ph;  ///< "B", "E", or "M"
  double ts_us = 0.0;
  long long pid = 0;
  long long tid = 0;
};

/// Parse the JSON text produced by write_chrome_trace (or any
/// chrome-trace JSON limited to the fields above). Throws
/// dassa::FormatError on malformed JSON or a missing required field.
[[nodiscard]] std::vector<ChromeEvent> parse_chrome_trace(
    const std::string& json);

/// Validate chrome-trace structure: every "B"/"E" carries name, cat,
/// ts, pid, tid; begin/end pairs balance per (pid, tid) lane with
/// matching names; timestamps are non-decreasing per lane. Throws
/// dassa::FormatError describing the first violation.
void validate_chrome_trace(const std::vector<ChromeEvent>& events);

namespace detail {
/// RAII guard emitting one span; construct only via DASSA_TRACE_SPAN.
class SpanGuard {
 public:
  SpanGuard(const char* cat, const char* name) {
    if (enabled()) {
      cat_ = cat;
      name_ = name;
      g_open_spans.fetch_add(1, std::memory_order_relaxed);
      start_ns_ = now_ns();
    }
  }
  ~SpanGuard() {
    if (cat_ != nullptr) {
      emit_span(cat_, name_, start_ns_, now_ns());
      g_open_spans.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};
}  // namespace detail

}  // namespace dassa::trace

#define DASSA_TRACE_CONCAT_INNER(a, b) a##b
#define DASSA_TRACE_CONCAT(a, b) DASSA_TRACE_CONCAT_INNER(a, b)

/// Trace the enclosing scope as one span. `cat` groups related spans
/// ("io", "cache", "codec", "par_read", "haee", "dsp", "mpi",
/// "pipeline"); `name` is the dotted span name ("io.read_slab"). Both
/// MUST be string literals -- the tracer keeps the pointers.
#define DASSA_TRACE_SPAN(cat, name)                        \
  ::dassa::trace::detail::SpanGuard DASSA_TRACE_CONCAT(    \
      dassa_trace_span_, __LINE__)(cat, name)
