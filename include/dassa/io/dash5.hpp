// DASS storage engine: the DASH5 container format.
//
// DASH5 is this reproduction's stand-in for HDF5 (see DESIGN.md): a
// self-describing single-file container holding
//   * a global key-value metadata list,
//   * a key-value metadata list per channel object,
//   * one dense row-major 2D dataset [channel, time],
// mirroring the hierarchical structure the paper stores in HDF5
// (Fig. 4). Headers are CRC-checked; datasets may be stored as float64
// or float32 and are always read back as double. All reads and writes
// flow through the counted file layer, so benches can report exact I/O
// call counts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dassa/common/shape.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/io/array_source.hpp"
#include "dassa/io/codec.hpp"
#include "dassa/io/file_io.hpp"
#include "dassa/io/kv.hpp"

namespace dassa::io {

/// On-disk element type of a DASH5 dataset.
enum class DType : std::uint8_t { kF64 = 0, kF32 = 1 };

[[nodiscard]] std::size_t dtype_size(DType t);

/// On-disk arrangement of the dataset (mirrors HDF5's contiguous vs
/// chunked layouts).
enum class Layout : std::uint8_t {
  kContiguous = 0,  ///< one dense row-major blob
  kChunked = 1,     ///< dense tiles of chunk_rows x chunk_cols, stored
                    ///< in chunk-grid row-major order; edge tiles are
                    ///< zero-padded to full size
};

/// Chunk tile extents (meaningful only under Layout::kChunked).
struct ChunkShape {
  std::size_t rows = 0;
  std::size_t cols = 0;
  friend bool operator==(const ChunkShape&, const ChunkShape&) = default;
};

/// Metadata of one channel object (paper Fig. 4: "/Measurement/<i>").
struct ObjectMeta {
  std::string path;
  KvList kv;
  friend bool operator==(const ObjectMeta&, const ObjectMeta&) = default;
};

/// Everything in a DASH5 file except the data blob.
struct Dash5Header {
  KvList global;
  std::vector<ObjectMeta> objects;
  DType dtype = DType::kF64;
  Shape2D shape;
  Layout layout = Layout::kContiguous;
  ChunkShape chunk;  ///< used when layout == kChunked
  /// Per-chunk compression chain. Empty = uncompressed: the writer
  /// emits a plain v2 file. Non-empty requires the chunked layout and
  /// produces a v3 file with a chunk index footer (docs/FORMAT.md).
  CodecSpec codec;
};

/// One entry of the DASH5 v3 chunk index (chunk-grid row-major).
struct ChunkIndexEntry {
  std::uint64_t offset = 0;    ///< absolute file offset of stored bytes
  std::uint64_t csize = 0;     ///< stored (possibly compressed) size
  std::uint64_t raw_size = 0;  ///< decoded size: chunk_elems * esize
  std::uint32_t crc = 0;       ///< CRC-32 of the stored bytes
  std::uint8_t codec = 0;      ///< 0 = stored raw, 1 = file codec chain
};

/// Write a complete DASH5 file in one shot.
/// `data` is row-major [shape.rows x shape.cols] and is converted to
/// `dtype` on disk.
void dash5_write(const std::string& path, const Dash5Header& header,
                 std::span<const double> data);

/// Incremental DASH5 writer: the header (with the final shape) is
/// written up front, then dataset elements are appended in row-major
/// order across any number of calls. Lets large merges (streaming RCA
/// creation) run in bounded memory instead of staging the whole merged
/// array.
///
/// With an empty header codec the output is a plain contiguous v2 file
/// (the chunked layout stays refused, as the tile order cannot be
/// produced from a row-major stream without buffering). With a codec
/// chain the layout must be chunked: rows are buffered into whole
/// chunk-row bands, each band is tiled and compressed in parallel when
/// full, and close() appends the v3 chunk index footer — memory stays
/// bounded by one band.
class Dash5StreamWriter {
 public:
  Dash5StreamWriter(const std::string& path, const Dash5Header& header);

  /// Append the next `data.size()` row-major elements; converted to the
  /// header's dtype on the fly.
  void append(std::span<const double> data);

  /// Number of elements appended so far.
  [[nodiscard]] std::size_t written() const { return written_; }

  /// Flush and close; throws StateError unless exactly shape.size()
  /// elements were appended.
  void close();

 private:
  void flush_band();

  OutputFile out_;
  Dash5Header header_;
  std::size_t expected_;
  std::size_t written_ = 0;
  bool closed_ = false;
  // v3 band state (used only when header_.codec is non-empty).
  std::vector<double> band_;  ///< chunk.rows x shape.cols staging rows
  std::size_t band_fill_ = 0;
  std::uint64_t cursor_ = 0;  ///< absolute offset of the next chunk
  std::vector<ChunkIndexEntry> index_;
};

/// One destination of a routed whole-member scan (Dash5File::scan_into):
/// member rows [rows.begin, rows.end) land in `dst`, row r at
/// `dst + (r - rows.begin) * stride`.
struct RowBand {
  Range rows;
  double* dst = nullptr;
  std::size_t stride = 0;
};

/// Read-only handle on a DASH5 file. Opening parses and CRC-verifies
/// the header only; dataset bytes are read on demand. A file is itself
/// an ArraySource, so single files, VCAs and LAVs are interchangeable
/// analysis inputs.
class Dash5File final : public ArraySource {
 public:
  explicit Dash5File(const std::string& path);
  ~Dash5File() override;

  // Holds a mutex and registers with the global chunk cache under a
  // per-instance identity, so the handle is pinned in place.
  Dash5File(const Dash5File&) = delete;
  Dash5File& operator=(const Dash5File&) = delete;

  [[nodiscard]] const std::string& path() const { return file_.path(); }
  [[nodiscard]] const KvList& global_meta() const { return header_.global; }
  [[nodiscard]] const std::vector<ObjectMeta>& objects() const {
    return header_.objects;
  }
  [[nodiscard]] DType dtype() const { return header_.dtype; }
  [[nodiscard]] Shape2D shape() const override { return header_.shape; }
  [[nodiscard]] Layout layout() const { return header_.layout; }
  [[nodiscard]] ChunkShape chunk() const { return header_.chunk; }
  /// Container format version: 2 (plain) or 3 (compressed chunks).
  [[nodiscard]] std::uint8_t version() const { return version_; }
  /// Per-chunk codec chain; empty for v2 files.
  [[nodiscard]] const CodecSpec& codec() const { return header_.codec; }
  /// v3 chunk index in chunk-grid row-major order; empty for v2 files.
  [[nodiscard]] const std::vector<ChunkIndexEntry>& chunk_index() const {
    return index_;
  }

  /// Read a rectangular selection into caller memory: row r of the
  /// selection lands at `dst + r * dst_stride` (at least slab.col_cnt),
  /// converted to double once, at the destination. The whole dataset
  /// is a scan_into() with one band; any other selection is a
  /// read_window_into(). Reads are `const`: only the (non-observable)
  /// file cursor moves.
  void read_slab_into(const Slab2D& slab, double* dst,
                      std::size_t dst_stride) const override;

  /// The windowed path, for any selection including the whole dataset:
  /// v3 tiles come from and go into the chunk cache and feed the
  /// readahead prefetcher. Full-width v2 row blocks are served with one
  /// contiguous read; partial-width v2 selections fall back to one read
  /// per row (each counted, which is exactly the small-I/O
  /// amplification the paper's VCA discussion is about). A Vca window
  /// reads its members this way, whole-member pieces included: the
  /// member handles outlive the read, so the next window reuses tiles.
  void read_window_into(const Slab2D& slab, double* dst,
                        std::size_t dst_stride) const;

  /// Read the whole dataset with one data read call and route each row
  /// to the band that owns it, converted to double once, at the
  /// destination. `bands` must tile the rows in order (band k + 1
  /// begins where band k ends, the last ends at shape().rows; empty
  /// bands are allowed) and each stride must be at least shape().cols.
  /// v3 tiles are CRC-checked and decoded once each, by the calling
  /// thread and io_pool() workers pulling from one tile counter, and
  /// are never looked up in or admitted to the chunk cache. Every
  /// worker is done with `bands` when the call returns or throws.
  void scan_into(std::span<const RowBand> bands) const;

  /// Parse only the header of `path` (used by VCA construction, which
  /// must never touch data bytes).
  [[nodiscard]] static Dash5Header read_header(const std::string& path);

  /// Process-global toggle for the stride-detecting readahead
  /// prefetcher (default on). Tests turn it off so io.cache.* counters
  /// become exact functions of the access pattern.
  static void set_readahead(bool on);
  [[nodiscard]] static bool readahead_enabled();

  /// Block until every in-flight prefetch task for this file has
  /// completed (no-op for v2 files). Between this call and the next
  /// read, the cache contents are deterministic.
  void drain_prefetch() const;

 private:
  // The stream cursor is physical state, not logical state: two
  // identical reads return identical bytes regardless of cursor
  // position, so const reads may move it.
  mutable InputFile file_;
  Dash5Header header_;
  std::uint64_t data_offset_ = 0;
  std::uint8_t version_ = 2;

  // v3 state: chunk index, cache identity, and the readahead
  // prefetcher. file_ is shared between caller reads and background
  // prefetch tasks, hence the I/O mutex. file_ itself carries no
  // DASSA_GUARDED_BY: the constructor populates it before any
  // concurrency exists, and path() reads an immutable field -- only
  // cursor-moving reads (read_at/read_vec) need io_mu_, which the
  // annotated call sites enforce. Prefetch internals live in the .cpp
  // (Prefetch is opaque here).
  std::vector<ChunkIndexEntry> index_;
  std::uint64_t file_id_ = 0;
  mutable Mutex io_mu_;
  struct Prefetch;
  std::unique_ptr<Prefetch> prefetch_;

  void parse_chunk_index();
  [[nodiscard]] const std::byte* chunk_elements(
      std::size_t chunk_idx, std::span<const std::byte> stored,
      std::vector<std::byte>& scratch) const;
  [[nodiscard]] std::vector<double> decode_chunk(
      std::size_t chunk_idx, std::span<const std::byte> stored) const;
  [[nodiscard]] std::shared_ptr<const std::vector<double>> load_tile(
      std::size_t gi, std::size_t gj) const;
  void read_v3_into(const Slab2D& slab, double* dst,
                    std::size_t dst_stride) const;
  void maybe_prefetch(std::size_t gi_lo, std::size_t gi_hi, std::size_t gj_lo,
                      std::size_t gj_hi) const;
};

}  // namespace dassa::io
