// DAS domain: file search (the das_search tool, paper Section IV-A).
//
// DAS acquisitions scatter data over thousands of per-minute files;
// analyses start by finding the files covering the interval of
// interest. The catalog supports the paper's two query types:
//   Type 1: time-stamp range -- a start timestamp (-s) plus a count of
//           consecutive files (-c);
//   Type 2: regular expression over the timestamp string (-e), for
//           arbitrary criteria.
// Searches run on metadata only (headers, or the timestamp embedded in
// the filename), never on data bytes -- that is what makes search +
// VCA creation ~70,000x cheaper than physical merging (paper Fig. 6).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dassa/common/shape.hpp"
#include "dassa/das/time.hpp"
#include "dassa/io/interval_index.hpp"
#include "dassa/io/vca.hpp"

namespace dassa::das {

/// One catalogued acquisition file.
struct DasFileInfo {
  std::string path;
  Timestamp timestamp;
  Shape2D shape;
  friend bool operator==(const DasFileInfo&, const DasFileInfo&) = default;
};

/// An in-memory catalog of DAS files, sorted by timestamp.
class Catalog {
 public:
  /// Scan a directory for acquisition files: *.dh5 files whose name
  /// ends in "_yymmddhhmmss.dh5", in both modes, so a merged RCA or
  /// other .dh5 output written into the directory never joins the
  /// catalog. When `read_headers` is true the timestamp and shape come
  /// from each file's DASH5 metadata; when false, the timestamp is
  /// parsed from the name's suffix and shapes are left empty
  /// (pure filename scan: no file opens, no reads, not even a stat
  /// per entry -- pinned by the counter regression test in
  /// tests/das/test_time_search.cpp).
  [[nodiscard]] static Catalog scan(const std::string& dir,
                                    bool read_headers = true);

  /// Build from already-known entries (sorted internally).
  [[nodiscard]] static Catalog from_entries(std::vector<DasFileInfo> entries);

  [[nodiscard]] const std::vector<DasFileInfo>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Type 1 query: the file at `start` (exact timestamp match or the
  /// first file at/after it) and the following `count - 1` files.
  [[nodiscard]] std::vector<DasFileInfo> query_range(const Timestamp& start,
                                                     std::size_t count) const;

  /// Files whose timestamps fall in [begin, end). Binary search over
  /// the sorted catalog: O(log n + k), never a full scan.
  [[nodiscard]] std::vector<DasFileInfo> query_interval(
      const Timestamp& begin, const Timestamp& end) const;

  /// Time-range query against a *persisted* VCA: the members of
  /// `vca_path` whose time extent overlaps [begin, end). When the .tix
  /// sidecar (io::IntervalIndex) is present the lookup is O(log n + k)
  /// entry touches; when it is absent the query still answers -- it
  /// logs a warning, charges io.index.fallbacks, and derives each
  /// member's extent linearly (one io.index.entry_touches per member).
  /// A sidecar that exists but fails to parse is corruption, not
  /// absence: the FormatError propagates.
  [[nodiscard]] static std::vector<DasFileInfo> query_vca_interval(
      const std::string& vca_path, const Timestamp& begin,
      const Timestamp& end);

  /// Type 2 query: files whose 12-digit timestamp string matches the
  /// regular expression `pattern` (full match).
  [[nodiscard]] std::vector<DasFileInfo> query_regex(
      const std::string& pattern) const;

  /// Convenience: just the paths of a query result.
  [[nodiscard]] static std::vector<std::string> paths(
      const std::vector<DasFileInfo>& infos);

 private:
  std::vector<DasFileInfo> entries_;
};

/// Timestamp embedded in an acquisition filename (the trailing
/// "_yymmddhhmmss.dh5"); nullopt when the name does not carry one.
[[nodiscard]] std::optional<Timestamp> timestamp_from_filename(
    const std::string& path);

/// Fence-pointer entries for every member of `vca`: begin from the
/// filename timestamp (falling back to a header read), duration from
/// the member width and the VCA's sampling rate. The result is what
/// the .tix writers persist next to the .vca.
[[nodiscard]] io::IntervalIndex build_interval_index(const io::Vca& vca);

/// Publish `vca` and its .tix sidecar, both atomically -- the
/// "republish" step shared by das_search --save-vca, the das_ingest
/// live VCA, and das_repack --save-vca.
void save_vca_with_index(const io::Vca& vca, const std::string& path);

}  // namespace dassa::das
