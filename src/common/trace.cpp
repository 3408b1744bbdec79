#include "dassa/common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/sync.hpp"
#include "json.hpp"

namespace dassa::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_open_spans{0};
}  // namespace detail

namespace {

struct SpanRecord {
  const char* name;
  const char* cat;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// One thread's span ring. The vector is reserved once at creation and
/// never reallocates: push until full, then drop-newest (dropping the
/// oldest would orphan enclosing spans and unbalance the exported
/// begin/end pairs). Guarded by `mu` so collect() from another thread
/// is race-free; the lock is uncontended on the emit path except while
/// a collection is in flight.
struct ThreadBuffer {
  Mutex mu;
  std::vector<SpanRecord> spans DASSA_GUARDED_BY(mu);
  std::size_t capacity DASSA_GUARDED_BY(mu) = 0;
  std::uint64_t dropped DASSA_GUARDED_BY(mu) = 0;
  std::uint32_t tid DASSA_GUARDED_BY(mu) = 0;
  int rank DASSA_GUARDED_BY(mu) = -1;
  bool detached DASSA_GUARDED_BY(mu) = false;  ///< owning thread has exited
};

struct Registry {
  Mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers DASSA_GUARDED_BY(mu);
  std::uint32_t next_tid DASSA_GUARDED_BY(mu) = 1;
  std::size_t ring_capacity DASSA_GUARDED_BY(mu) = kDefaultRingCapacity;
};

Registry& registry() {
  static Registry reg;
  return reg;
}

thread_local int t_rank = -1;

/// Marks the buffer detached at thread exit so clear() can release it.
struct BufferHolder {
  std::shared_ptr<ThreadBuffer> buf;
  ~BufferHolder() {
    if (buf) {
      MutexLock lock(buf->mu);
      buf->detached = true;
    }
  }
};
thread_local BufferHolder t_holder;

ThreadBuffer& local_buffer() {
  if (!t_holder.buf) {
    auto buf = std::make_shared<ThreadBuffer>();
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    {
      // The buffer is not yet published; the lock exists to satisfy the
      // capability analysis and is uncontended. reg.mu -> buf->mu is
      // the same acquisition order clear() uses.
      MutexLock buf_lock(buf->mu);
      buf->tid = reg.next_tid++;
      static Counter& threads =
          global_counters().counter(counters::kTraceThreads);
      threads.add();
      buf->capacity = reg.ring_capacity;
      buf->spans.reserve(buf->capacity);
      buf->rank = t_rank;
    }
    reg.buffers.push_back(buf);
    t_holder.buf = std::move(buf);
  }
  return *t_holder.buf;
}

void json_escape(std::ostream& os, const char* s) {
  std::string out;
  jsonio::escape(out, s);
  os << out;
}

}  // namespace

namespace detail {

std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

void emit_span(const char* cat, const char* name, std::uint64_t start_ns,
               std::uint64_t end_ns) {
  DASSA_CHECK(cat != nullptr && name != nullptr,
              "trace span category and name must be string literals");
  const std::uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  // The tracer's own statistics, cumulative across clear().
  static Counter& emitted =
      global_counters().counter(counters::kTraceSpansEmitted);
  static Counter& dropped =
      global_counters().counter(counters::kTraceSpansDropped);
  ThreadBuffer& buf = local_buffer();
  {
    MutexLock lock(buf.mu);
    if (buf.spans.size() < buf.capacity) {
      buf.spans.push_back(SpanRecord{name, cat, start_ns, dur});
    } else {
      ++buf.dropped;
      dropped.add();
    }
  }
  emitted.add();
  global_metrics().histogram(name).record_ns(dur);
}

}  // namespace detail

void set_enabled(bool enabled) {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

void set_thread_rank(int rank) {
  DASSA_CHECK(rank >= -1, "trace thread rank must be >= -1");
  t_rank = rank;
  if (t_holder.buf) {
    MutexLock lock(t_holder.buf->mu);
    t_holder.buf->rank = rank;
  }
}

int thread_rank() { return t_rank; }

void set_ring_capacity(std::size_t spans) {
  DASSA_CHECK(spans > 0, "trace ring capacity must be positive");
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  reg.ring_capacity = spans;
}

std::vector<TraceEvent> collect() {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    Registry& reg = registry();
    MutexLock lock(reg.mu);
    bufs = reg.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : bufs) {
    MutexLock lock(buf->mu);
    out.reserve(out.size() + buf->spans.size());
    for (const SpanRecord& s : buf->spans) {
      out.push_back(
          TraceEvent{s.name, s.cat, s.start_ns, s.dur_ns, buf->rank,
                     buf->tid});
    }
  }
  // One ordered trace: lanes grouped by (rank, tid), spans by start
  // time; at equal starts the longer (enclosing) span first, so the
  // order is already the begin-order chrome expects.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  return out;
}

void clear() {
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  for (const auto& buf : reg.buffers) {
    MutexLock buf_lock(buf->mu);
    buf->spans.clear();  // keeps capacity: still zero-alloc afterwards
    buf->dropped = 0;
  }
  std::erase_if(reg.buffers, [](const std::shared_ptr<ThreadBuffer>& b) {
    MutexLock buf_lock(b->mu);
    return b->detached;
  });
}

std::uint64_t dropped_spans() {
  Registry& reg = registry();
  MutexLock lock(reg.mu);
  std::uint64_t total = 0;
  for (const auto& buf : reg.buffers) {
    MutexLock buf_lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceEvent>& events) {
  DASSA_CHECK(os.good(), "chrome-trace output stream is not writable");
  std::vector<TraceEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });

  const auto fmt_ts = [&os](std::uint64_t ns) {
    // Microseconds with nanosecond precision, as chrome expects.
    os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
       << static_cast<char>('0' + (ns % 100) / 10)
       << static_cast<char>('0' + ns % 10);
  };

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Process-name metadata: one lane per rank (pid = rank + 1; pid 0
  // holds threads that ran outside any MiniMPI rank).
  std::map<int, bool> ranks;
  for (const TraceEvent& e : sorted) ranks[e.rank] = true;
  for (const auto& [rank, _] : ranks) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rank + 1
       << ",\"tid\":0,\"args\":{\"name\":\""
       << (rank < 0 ? std::string("unranked")
                    : "rank " + std::to_string(rank))
       << "\"}}";
  }

  const auto emit_mark = [&](char ph, const TraceEvent& e,
                             std::uint64_t ts_ns) {
    sep();
    os << "{\"name\":";
    json_escape(os, e.name);
    os << ",\"cat\":";
    json_escape(os, e.cat);
    os << ",\"ph\":\"" << ph << "\",\"ts\":";
    fmt_ts(ts_ns);
    os << ",\"pid\":" << e.rank + 1 << ",\"tid\":" << e.tid << "}";
  };

  // Per-lane sweep: scoped spans from one thread form a laminar family
  // (each pair either nests or is disjoint), so before opening the
  // next span we close every open span of an earlier lane, and every
  // same-lane span that already ended. Stack ends are non-increasing
  // toward the top, so each lane's timestamps stay non-decreasing and
  // every pair balances.
  std::vector<const TraceEvent*> stack;
  for (const TraceEvent& e : sorted) {
    while (!stack.empty()) {
      const TraceEvent* top = stack.back();
      const bool same_lane = top->rank == e.rank && top->tid == e.tid;
      const std::uint64_t end = top->start_ns + top->dur_ns;
      if (same_lane && end > e.start_ns) break;  // e nests inside top
      emit_mark('E', *top, end);
      stack.pop_back();
    }
    emit_mark('B', e, e.start_ns);
    stack.push_back(&e);
  }
  while (!stack.empty()) {
    const TraceEvent* top = stack.back();
    emit_mark('E', *top, top->start_ns + top->dur_ns);
    stack.pop_back();
  }
  os << "\n]}\n";
}

namespace detail {

void write_summary_row(std::ostream& os, const std::string& name,
                       const std::string& cat, std::uint64_t count,
                       double total_ms, double p50_us, double p95_us,
                       double p99_us) {
  // At least one space between columns, always: an over-wide name or
  // count shifts its row instead of fusing with the next column.
  const auto pad = [&os](const std::string& s, std::size_t w) {
    os << s << ' ';
    for (std::size_t i = s.size(); i < w; ++i) os << ' ';
  };
  pad(name, 37);
  pad(cat, 8);
  char nums[160];
  std::snprintf(nums, sizeof nums, "%7llu %10.3f %10.3f %10.3f %10.3f\n",
                static_cast<unsigned long long>(count), total_ms, p50_us,
                p95_us, p99_us);
  os << nums;
}

}  // namespace detail

void write_summary(std::ostream& os, const std::vector<TraceEvent>& events) {
  struct Agg {
    const char* cat = "";
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::vector<std::uint64_t> durs;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : events) {
    DASSA_CHECK(e.name != nullptr && e.cat != nullptr,
                "trace events must carry name and category");
    Agg& a = by_name[e.name];
    a.cat = e.cat;
    ++a.count;
    a.total_ns += e.dur_ns;
    a.durs.push_back(e.dur_ns);
  }

  std::vector<std::pair<std::string, Agg*>> rows;
  rows.reserve(by_name.size());
  for (auto& [name, agg] : by_name) rows.emplace_back(name, &agg);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->total_ns > b.second->total_ns;
  });

  const std::map<std::string, HistogramSnapshot> hists =
      global_metrics().snapshot();
  const auto quantile_us = [&](const std::string& name, Agg& agg,
                               double q) -> double {
    // Prefer the exact collected durations; the histogram covers spans
    // whose ring entries were dropped.
    if (!agg.durs.empty()) {
      std::sort(agg.durs.begin(), agg.durs.end());
      const double pos = q * static_cast<double>(agg.durs.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, agg.durs.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      return (static_cast<double>(agg.durs[lo]) * (1.0 - frac) +
              static_cast<double>(agg.durs[hi]) * frac) /
             1000.0;
    }
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.quantile_ns(q) / 1000.0;
  };

  os << "span                                  cat        count"
     << "   total_ms     p50_us     p95_us     p99_us\n";
  for (auto& [name, agg] : rows) {
    detail::write_summary_row(os, name, agg->cat, agg->count,
                              static_cast<double>(agg->total_ns) / 1e6,
                              quantile_us(name, *agg, 0.50),
                              quantile_us(name, *agg, 0.95),
                              quantile_us(name, *agg, 0.99));
  }
  if (const std::uint64_t dropped = dropped_spans(); dropped > 0) {
    os << "(" << dropped << " span(s) dropped: ring full)\n";
  }
}

// ---------------------------------------------------------------------------
// chrome-trace parsing + validation (das_trace, schema tests)
// ---------------------------------------------------------------------------

namespace {

using JsonReader = jsonio::JsonReader;

const JsonReader::Value& require(const JsonReader::Value& event,
                                 const std::string& key,
                                 JsonReader::Value::Type type,
                                 std::size_t index) {
  const JsonReader::Value* v = event.find(key);
  if (v == nullptr || v->type != type) {
    throw FormatError("trace event " + std::to_string(index) +
                      " is missing required field '" + key + "'");
  }
  return *v;
}

}  // namespace

std::vector<ChromeEvent> parse_chrome_trace(const std::string& json) {
  DASSA_CHECK(!json.empty(), "empty chrome-trace document");
  JsonReader::Value root = JsonReader(json).parse();

  const JsonReader::Value* list = nullptr;
  if (root.type == JsonReader::Value::Type::kArray) {
    list = &root;
  } else if (root.type == JsonReader::Value::Type::kObject) {
    list = root.find("traceEvents");
  }
  if (list == nullptr || list->type != JsonReader::Value::Type::kArray) {
    throw FormatError("chrome-trace document has no traceEvents array");
  }

  using VT = JsonReader::Value::Type;
  std::vector<ChromeEvent> out;
  out.reserve(list->arr.size());
  for (std::size_t i = 0; i < list->arr.size(); ++i) {
    const JsonReader::Value& ev = list->arr[i];
    if (ev.type != VT::kObject) {
      throw FormatError("trace event " + std::to_string(i) +
                        " is not an object");
    }
    ChromeEvent ce;
    ce.name = require(ev, "name", VT::kString, i).str;
    ce.ph = require(ev, "ph", VT::kString, i).str;
    ce.pid = static_cast<long long>(require(ev, "pid", VT::kNumber, i).number);
    if (ce.ph == "B" || ce.ph == "E") {
      ce.cat = require(ev, "cat", VT::kString, i).str;
      ce.ts_us = require(ev, "ts", VT::kNumber, i).number;
      ce.tid =
          static_cast<long long>(require(ev, "tid", VT::kNumber, i).number);
    } else if (const JsonReader::Value* tid = ev.find("tid");
               tid != nullptr && tid->type == VT::kNumber) {
      ce.tid = static_cast<long long>(tid->number);
    }
    out.push_back(std::move(ce));
  }
  return out;
}

void validate_chrome_trace(const std::vector<ChromeEvent>& events) {
  DASSA_CHECK(!events.empty(), "empty chrome-trace event list");
  struct Lane {
    std::vector<const ChromeEvent*> stack;
    double last_ts = -1.0;
  };
  std::map<std::pair<long long, long long>, Lane> lanes;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChromeEvent& e = events[i];
    if (e.ph == "M") continue;
    if (e.ph != "B" && e.ph != "E") {
      throw FormatError("trace event " + std::to_string(i) +
                        " has unsupported phase '" + e.ph + "'");
    }
    Lane& lane = lanes[{e.pid, e.tid}];
    if (e.ts_us < lane.last_ts) {
      throw FormatError("trace event " + std::to_string(i) + " ('" + e.name +
                        "') goes backwards in time on lane pid=" +
                        std::to_string(e.pid) +
                        " tid=" + std::to_string(e.tid));
    }
    lane.last_ts = e.ts_us;
    if (e.ph == "B") {
      lane.stack.push_back(&e);
    } else {
      if (lane.stack.empty()) {
        throw FormatError("trace event " + std::to_string(i) + " ('" +
                          e.name + "') ends a span that never began");
      }
      if (lane.stack.back()->name != e.name) {
        throw FormatError("trace event " + std::to_string(i) + " ends '" +
                          e.name + "' but '" + lane.stack.back()->name +
                          "' is open");
      }
      lane.stack.pop_back();
    }
  }
  for (const auto& [key, lane] : lanes) {
    if (!lane.stack.empty()) {
      throw FormatError("lane pid=" + std::to_string(key.first) +
                        " tid=" + std::to_string(key.second) + " leaves '" +
                        std::string(lane.stack.back()->name) +
                        "' unclosed");
    }
  }
}

}  // namespace dassa::trace
