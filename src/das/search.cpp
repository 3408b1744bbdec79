#include "dassa/das/search.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <regex>

#include "dassa/common/counters.hpp"
#include "dassa/common/log.hpp"
#include "dassa/io/dash5.hpp"

namespace dassa::das {

namespace {

/// Extract "yymmddhhmmss" from a path ending in "_<12 digits>.dh5";
/// returns empty if the pattern does not match.
std::string timestamp_from_name(const std::filesystem::path& p) {
  const std::string stem = p.stem().string();
  if (stem.size() < 13) return {};
  const std::string tail = stem.substr(stem.size() - 12);
  if (stem[stem.size() - 13] != '_') return {};
  for (char c : tail) {
    if (c < '0' || c > '9') return {};
  }
  return tail;
}

}  // namespace

Catalog Catalog::scan(const std::string& dir, bool read_headers) {
  DASSA_CHECK(!dir.empty(), "catalog scan needs a directory");
  std::vector<DasFileInfo> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    // The name decides what an acquisition file is, in both modes: a
    // pure string test, so clutter costs nothing, and a merged RCA or
    // any other .dh5 written next to the acquisition (no
    // "_yymmddhhmmss" suffix) stays out of the catalog. The names-only
    // path also skips the is_regular_file() stat -- it touches the
    // directory entries and nothing else (the suffix rule already
    // rejects any pathological directory named like an acquisition
    // file).
    if (entry.path().extension() != ".dh5") continue;
    const std::string ts = timestamp_from_name(entry.path());
    if (ts.empty()) continue;  // not an acquisition file
    DasFileInfo info;
    info.path = entry.path().string();
    if (read_headers) {
      if (!entry.is_regular_file()) continue;
      const io::Dash5Header h = io::Dash5File::read_header(info.path);
      info.timestamp =
          Timestamp::parse(h.global.get_or_throw(io::meta::kTimeStamp));
      info.shape = h.shape;
    } else {
      info.timestamp = Timestamp::parse(ts);
    }
    entries.push_back(std::move(info));
  }
  return from_entries(std::move(entries));
}

Catalog Catalog::from_entries(std::vector<DasFileInfo> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const DasFileInfo& a, const DasFileInfo& b) {
              return a.timestamp < b.timestamp ||
                     (a.timestamp == b.timestamp && a.path < b.path);
            });
  Catalog c;
  c.entries_ = std::move(entries);
  return c;
}

std::vector<DasFileInfo> Catalog::query_range(const Timestamp& start,
                                              std::size_t count) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), start,
      [](const DasFileInfo& a, const Timestamp& t) { return a.timestamp < t; });
  const std::size_t first = static_cast<std::size_t>(it - entries_.begin());
  const std::size_t last = std::min(entries_.size(), first + count);
  return {entries_.begin() + static_cast<std::ptrdiff_t>(first),
          entries_.begin() + static_cast<std::ptrdiff_t>(last)};
}

std::vector<DasFileInfo> Catalog::query_interval(const Timestamp& begin,
                                                 const Timestamp& end) const {
  if (end <= begin) return {};
  const auto by_time = [](const DasFileInfo& a, const Timestamp& t) {
    return a.timestamp < t;
  };
  const auto lo =
      std::lower_bound(entries_.begin(), entries_.end(), begin, by_time);
  const auto hi = std::lower_bound(lo, entries_.end(), end, by_time);
  return {lo, hi};
}

std::vector<DasFileInfo> Catalog::query_vca_interval(
    const std::string& vca_path, const Timestamp& begin,
    const Timestamp& end) {
  const io::Vca vca = io::Vca::load(vca_path);
  const std::string sidecar = io::IntervalIndex::sidecar_path(vca_path);
  std::vector<io::IntervalEntry> hits;
  if (std::filesystem::exists(sidecar)) {
    // A present-but-unreadable sidecar is corruption, not absence; the
    // load's FormatError propagates instead of silently rescanning.
    const io::IntervalIndex idx = io::IntervalIndex::load(sidecar);
    hits = idx.query(begin.epoch_seconds(), end.epoch_seconds());
  } else {
    DASSA_SLOG(kWarn, "search.index_fallback")
        .field("vca", vca_path)
        .field("members", vca.members().size());
    global_counters().add(counters::kIoIndexFallbacks);
    // Linear fallback: derive every member's extent (one entry touch
    // each -- the O(n) cost the sidecar exists to avoid) and filter.
    const io::IntervalIndex idx = build_interval_index(vca);
    global_counters().add(counters::kIoIndexEntryTouches,
                          idx.entries().size());
    const std::int64_t qb = begin.epoch_seconds();
    const std::int64_t qe = end.epoch_seconds();
    for (const io::IntervalEntry& e : idx.entries()) {
      if (e.end_s > qb && e.begin_s < qe) hits.push_back(e);
    }
  }
  std::vector<DasFileInfo> out;
  out.reserve(hits.size());
  for (const io::IntervalEntry& e : hits) {
    DASSA_CHECK(e.member < vca.members().size(),
                "interval entry points past the VCA members");
    const io::VcaMember& m = vca.members()[e.member];
    out.push_back(DasFileInfo{
        m.path, Timestamp{}.plus_seconds(e.begin_s), m.shape});
  }
  return out;
}

std::vector<DasFileInfo> Catalog::query_regex(
    const std::string& pattern) const {
  const std::regex re(pattern);
  std::vector<DasFileInfo> out;
  for (const auto& e : entries_) {
    if (std::regex_match(e.timestamp.str(), re)) out.push_back(e);
  }
  return out;
}

std::vector<std::string> Catalog::paths(
    const std::vector<DasFileInfo>& infos) {
  std::vector<std::string> out;
  out.reserve(infos.size());
  for (const auto& i : infos) out.push_back(i.path);
  return out;
}

std::optional<Timestamp> timestamp_from_filename(const std::string& path) {
  DASSA_CHECK(!path.empty(), "timestamp_from_filename needs a path");
  const std::string ts = timestamp_from_name(std::filesystem::path(path));
  if (ts.empty()) return std::nullopt;
  return Timestamp::parse(ts);
}

namespace {

/// A member's begin timestamp: from its filename when possible (no
/// I/O), from its header otherwise (one open).
Timestamp member_timestamp(const io::VcaMember& m) {
  if (const auto ts = timestamp_from_filename(m.path)) return *ts;
  const io::Dash5Header h = io::Dash5File::read_header(m.path);
  return Timestamp::parse(h.global.get_or_throw(io::meta::kTimeStamp));
}

}  // namespace

io::IntervalIndex build_interval_index(const io::Vca& vca) {
  DASSA_CHECK(!vca.members().empty(),
              "cannot index an empty VCA");
  const double rate = vca.global_meta().get_f64(io::meta::kSamplingFrequencyHz);
  DASSA_CHECK(rate > 0.0, "VCA sampling rate must be positive");
  std::vector<io::IntervalEntry> entries;
  entries.reserve(vca.members().size());
  for (std::size_t i = 0; i < vca.members().size(); ++i) {
    const io::VcaMember& m = vca.members()[i];
    io::IntervalEntry e;
    e.begin_s = member_timestamp(m).epoch_seconds();
    // Round the duration up so the extent covers the last sample; a
    // sub-second file still owns a one-second interval.
    const double dur = std::ceil(static_cast<double>(m.shape.cols) / rate);
    e.end_s = e.begin_s + std::max<std::int64_t>(1, static_cast<std::int64_t>(dur));
    e.member = i;
    e.col_start = vca.member_col_start(i);
    e.cols = m.shape.cols;
    entries.push_back(e);
  }
  return io::IntervalIndex::build(std::move(entries));
}

void save_vca_with_index(const io::Vca& vca, const std::string& path) {
  DASSA_CHECK(!path.empty(), "save_vca_with_index needs a path");
  vca.save_atomic(path);
  build_interval_index(vca).save_atomic(io::IntervalIndex::sidecar_path(path));
}

}  // namespace dassa::das
