// Shared helpers of the end-to-end benchmark: scratch directories, the
// seeded scene, statistics, counter deltas and the span ledger.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <thread>

#include "bench.hpp"
#include "dassa/common/counters.hpp"

namespace bench {

using dassa::trace::TraceEvent;

WorkDir::WorkDir(const std::string& name)
    : path_(std::filesystem::path(".bench_work") / name) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::remove(path_.parent_path(), ec);  // only if empty
}

std::uint64_t Rng::next() {
  std::uint64_t x = (state_ += 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

std::size_t Rng::pick(std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
}

dassa::das::SynthDas make_scene(std::uint64_t seed, std::size_t channels,
                                double sampling_hz, double record_s,
                                SceneTruth* truth) {
  using namespace dassa::das;
  Rng rng(seed);
  SynthConfig cfg;
  cfg.channels = channels;
  cfg.sampling_hz = sampling_hz;
  cfg.seed = rng.next();
  SynthDas scene(cfg);
  const auto span = static_cast<double>(channels);
  const double crossing_s = record_s / 6.0;

  // Vehicle 1 drives up the cable early in the record, vehicle 2 down
  // it late; each crosses the array in about a sixth of the record.
  VehicleEvent up;
  up.start_s = rng.uniform(0.03, 0.10) * record_s;
  up.start_channel = -0.05 * span;
  up.speed_ch_per_s = 1.1 * span / crossing_s;
  up.width_channels = std::max(2.0, span / 32.0);
  up.freq_hz = 12.0;
  up.amplitude = 5.0;
  up.duration_s = crossing_s;
  scene.add(up);

  VehicleEvent down = up;
  down.start_s = rng.uniform(0.70, 0.76) * record_s;
  down.start_channel = 1.05 * span;
  down.speed_ch_per_s = -up.speed_ch_per_s;
  down.freq_hz = 16.0;
  down.amplitude = 4.0;
  scene.add(down);

  EarthquakeEvent quake;
  quake.origin_s = rng.uniform(0.40, 0.50) * record_s;
  quake.epicenter_channel = rng.uniform(0.3, 0.7) * span;
  quake.freq_hz = 6.0;
  quake.decay_s = 2.0;
  quake.amplitude = 12.0;
  scene.add(quake);

  PersistentSource hum;
  hum.channel_lo = 0.78 * span;
  hum.channel_hi = 0.82 * span;
  hum.freq_hz = 30.0;
  hum.amplitude = 3.0;
  scene.add(hum);

  if (truth != nullptr) {
    truth->quake_arrival_s =
        quake.origin_s + quake.depth_m / quake.velocity_m_s;
  }
  return scene;
}

dassa::core::EngineConfig engine_2x2() {
  dassa::core::EngineConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.mode = dassa::core::EngineMode::kHybrid;
  cfg.read_method = dassa::core::ReadMethod::kCommunicationAvoiding;
  return cfg;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void HostSpeed::sample() {
  constexpr int kThreads = 4;
  constexpr int kSteps = 20000000;
  std::vector<double> results(kThreads, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] {
      double a = 1.0 + t;
      for (int i = 0; i < kSteps; ++i) a = a * 1.0000001 + 1e-9;
      results[static_cast<std::size_t>(t)] = a;
    });
  }
  for (std::thread& th : threads) th.join();
  walls_.push_back(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

double HostSpeed::median_s() const { return median(walls_); }

double HostSpeed::factor() const {
  return walls_.empty() ? 1.0 : kNominal_s / median_s();
}

HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

CounterDelta::CounterDelta() : before_(dassa::global_counters().snapshot()) {}

void CounterDelta::stop() { after_ = dassa::global_counters().snapshot(); }

double CounterDelta::get(const std::string& name) const {
  const auto value = [&](const std::map<std::string, std::uint64_t>& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  };
  return static_cast<double>(value(after_) - value(before_));
}

void Ledger::group(const std::string& name,
                   std::vector<std::string> members) {
  for (std::string& m : members) group_of_[std::move(m)] = name;
}

void Ledger::add_op(const std::vector<TraceEvent>& events) {
  // Self time: spans of one thread nest, so each span's direct children
  // are disjoint and their durations add up to the covered time.
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) by_thread[e.tid].push_back(&e);
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                  : a->dur_ns > b->dur_ns;
              });
    std::vector<std::uint64_t> covered(list.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < list.size(); ++i) {
      while (!open.empty() && list[open.back()]->start_ns +
                                      list[open.back()]->dur_ns <=
                                  list[i]->start_ns) {
        open.pop_back();
      }
      if (!open.empty()) covered[open.back()] += list[i]->dur_ns;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      SpanTotals& t = spans_[list[i]->name];
      t.total_s += static_cast<double>(list[i]->dur_ns) * 1e-9;
      t.self_s += static_cast<double>(
                      list[i]->dur_ns - std::min(covered[i], list[i]->dur_ns)) *
                  1e-9;
      ++t.count;
    }
  }

  // Rank-max and imbalance: spans outside any rank form one lane.
  std::map<std::string, std::map<int, double>> per_rank;
  for (const TraceEvent& e : events) {
    const double secs = static_cast<double>(e.dur_ns) * 1e-9;
    per_rank[e.name][e.rank] += secs;
    if (const auto g = group_of_.find(e.name); g != group_of_.end()) {
      per_rank[g->second][e.rank] += secs;
    }
  }
  for (const auto& [name, ranks] : per_rank) {
    double max = 0.0;
    double sum = 0.0;
    for (const auto& [rank, secs] : ranks) {
      max = std::max(max, secs);
      sum += secs;
    }
    SpanTotals& t = spans_[name];
    t.rank_max_s += max;
    const double mean = sum / static_cast<double>(ranks.size());
    t.imbalance_sum += mean > 0.0 ? max / mean : 1.0;
    ++t.ops;
  }
}

const SpanTotals* Ledger::find(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? nullptr : &it->second;
}

double Ledger::total_s(const std::string& name) const {
  const SpanTotals* t = find(name);
  return t == nullptr ? 0.0 : t->total_s;
}

double Ledger::self_s(const std::string& name) const {
  const SpanTotals* t = find(name);
  return t == nullptr ? 0.0 : t->self_s;
}

double Ledger::rank_max_s(const std::string& name) const {
  const SpanTotals* t = find(name);
  return t == nullptr ? 0.0 : t->rank_max_s;
}

double Ledger::imbalance(const std::string& name) const {
  const SpanTotals* t = find(name);
  return t == nullptr || t->ops == 0
             ? 0.0
             : t->imbalance_sum / static_cast<double>(t->ops);
}

void Ledger::print(std::ostream& os, double ops) const {
  std::vector<std::pair<std::string, SpanTotals>> rows(spans_.begin(),
                                                       spans_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_s > b.second.total_s;
  });
  ops = std::max(ops, 1.0);
  char line[160];
  std::snprintf(line, sizeof line, "%-30s %10s %12s %12s %12s\n", "span",
                "count/op", "total_ms/op", "self_ms/op", "rankmax_ms/op");
  os << "per-layer ledger, per operation over " << ops
     << " traced operation(s)\n"
     << line;
  for (const auto& [name, t] : rows) {
    std::snprintf(line, sizeof line, "%-30s %10.1f %12.3f %12.3f %12.3f\n",
                  name.c_str(), static_cast<double>(t.count) / ops,
                  t.total_s * 1e3 / ops, t.self_s * 1e3 / ops,
                  t.rank_max_s * 1e3 / ops);
    os << line;
  }
}

}  // namespace bench
