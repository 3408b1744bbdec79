#include "dassa/io/dash5.hpp"

#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <set>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dash5_detail.hpp"
#include "serialize.hpp"

namespace dassa::io {

namespace {

/// Process-global readahead gate (see Dash5File::set_readahead). Tests
/// flip it off to make io.cache.* counts exactly reproducible.
std::atomic<bool> g_readahead{true};

// Framing constants live in dash5_detail.hpp (shared with the parallel
// repack engine); local aliases keep the historical names readable.
constexpr auto& kMagic = detail::kMagicV2;
using detail::kFooterTail;
using detail::kIndexEntrySize;
using detail::kIndexMagic;
using detail::kMagicV3;
using detail::kPreludeSize;

/// True iff a * b overflows uint64. Extent fields come straight from
/// the (attacker-controllable) file, so every size computation derived
/// from them must be checked before it feeds an allocation or offset.
bool mul_overflows(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b;
}

void encode_kv(detail::Encoder& enc, const KvList& kv) {
  enc.u32(static_cast<std::uint32_t>(kv.size()));
  for (const auto& [k, v] : kv.items()) {
    enc.str(k);
    enc.str(v);
  }
}

KvList decode_kv(detail::Decoder& dec) {
  KvList kv;
  const std::uint32_t n = dec.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = dec.str();
    std::string v = dec.str();
    kv.set(std::move(k), std::move(v));
  }
  return kv;
}

std::vector<std::byte> encode_header(const Dash5Header& h) {
  detail::Encoder enc;
  encode_kv(enc, h.global);
  enc.u64(h.objects.size());
  for (const auto& obj : h.objects) {
    enc.str(obj.path);
    encode_kv(enc, obj.kv);
  }
  enc.u8(static_cast<std::uint8_t>(h.dtype));
  enc.u64(h.shape.rows);
  enc.u64(h.shape.cols);
  enc.u8(static_cast<std::uint8_t>(h.layout));
  enc.u64(h.chunk.rows);
  enc.u64(h.chunk.cols);
  if (!h.codec.empty()) {
    // v3 extension: the per-chunk codec chain. v2 headers stop at the
    // chunk extents, so old readers never see these bytes.
    enc.u8(static_cast<std::uint8_t>(h.codec.chain.size()));
    for (const CodecId id : h.codec.chain) {
      enc.u8(static_cast<std::uint8_t>(id));
    }
  }
  std::vector<std::byte> out = enc.bytes();
  const std::uint32_t crc = detail::crc32(out.data(), out.size());
  detail::Encoder tail;
  tail.u32(crc);
  out.insert(out.end(), tail.bytes().begin(), tail.bytes().end());
  return out;
}

Dash5Header decode_header(const std::vector<std::byte>& raw,
                          const std::string& path,
                          std::uint8_t version) {
  if (raw.size() < 4) throw FormatError("header too small in " + path);
  const std::size_t body = raw.size() - 4;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, raw.data() + body, 4);
  if (detail::crc32(raw.data(), body) != stored_crc) {
    throw FormatError("header CRC mismatch in " + path);
  }
  detail::Decoder dec(raw);
  Dash5Header h;
  h.global = decode_kv(dec);
  const std::uint64_t nobj = dec.u64();
  // Each object needs >= 8 encoded bytes (path length + kv count), so
  // a count beyond body/8 cannot be satisfied -- reject it before the
  // reserve turns a 4-byte corruption into a std::bad_alloc.
  if (nobj > raw.size() / 8) {
    throw FormatError("implausible object count in " + path);
  }
  h.objects.reserve(nobj);
  for (std::uint64_t i = 0; i < nobj; ++i) {
    ObjectMeta obj;
    obj.path = dec.str();
    obj.kv = decode_kv(dec);
    h.objects.push_back(std::move(obj));
  }
  const std::uint8_t dtype = dec.u8();
  if (dtype > static_cast<std::uint8_t>(DType::kF32)) {
    throw FormatError("unknown dtype in " + path);
  }
  h.dtype = static_cast<DType>(dtype);
  h.shape.rows = dec.u64();
  h.shape.cols = dec.u64();
  const std::uint8_t layout = dec.u8();
  if (layout > static_cast<std::uint8_t>(Layout::kChunked)) {
    throw FormatError("unknown layout in " + path);
  }
  h.layout = static_cast<Layout>(layout);
  h.chunk.rows = dec.u64();
  h.chunk.cols = dec.u64();
  if (version >= 3) {
    const std::uint8_t nstages = dec.u8();
    if (nstages == 0 || nstages > CodecSpec::kMaxChain) {
      throw FormatError("implausible codec chain length in " + path);
    }
    h.codec.chain.reserve(nstages);
    for (std::uint8_t i = 0; i < nstages; ++i) {
      const std::uint8_t id = dec.u8();
      if (CodecRegistry::instance().find(static_cast<CodecId>(id)) ==
          nullptr) {
        throw FormatError("unknown codec id " + std::to_string(id) + " in " +
                          path);
      }
      h.codec.chain.push_back(static_cast<CodecId>(id));
    }
  }
  if (h.layout == Layout::kChunked &&
      (h.chunk.rows == 0 || h.chunk.cols == 0)) {
    throw FormatError("chunked layout without chunk extents in " + path);
  }
  if (mul_overflows(h.shape.rows, h.shape.cols)) {
    throw FormatError("dataset extent overflow " + h.shape.str() + " in " +
                      path);
  }
  if (h.layout == Layout::kChunked &&
      mul_overflows(h.chunk.rows, h.chunk.cols)) {
    throw FormatError("chunk extent overflow in " + path);
  }
  if (version >= 3 && h.layout != Layout::kChunked) {
    throw FormatError("v3 requires the chunked layout in " + path);
  }
  return h;
}

}  // namespace

std::size_t dtype_size(DType t) {
  return t == DType::kF64 ? sizeof(double) : sizeof(float);
}

namespace {

/// Number of chunk tiles along each axis.
std::pair<std::size_t, std::size_t> chunk_grid(const Dash5Header& h) {
  return {(h.shape.rows + h.chunk.rows - 1) / h.chunk.rows,
          (h.shape.cols + h.chunk.cols - 1) / h.chunk.cols};
}

/// Widen `count` stored elements of `dtype` at `raw` into doubles. f32
/// widens straight from the stored bytes: memcpy per element is the
/// defined way to read a float at an arbitrary byte offset.
void decode_elems(DType dtype, const std::byte* raw, std::size_t count,
                  double* out) {
  if (dtype == DType::kF64) {
    std::memcpy(out, raw, count * sizeof(double));
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    float f = 0.0F;
    std::memcpy(&f, raw + i * sizeof(float), sizeof(float));
    out[i] = f;
  }
}

/// Inclusive chunk-grid bounds of the tiles a non-empty selection
/// touches.
struct TileSpan {
  std::size_t gi_lo, gi_hi, gj_lo, gj_hi;
};

TileSpan tile_span(ChunkShape chunk, const Slab2D& slab) {
  return {slab.row_off / chunk.rows,
          (slab.row_off + slab.row_cnt - 1) / chunk.rows,
          slab.col_off / chunk.cols,
          (slab.col_off + slab.col_cnt - 1) / chunk.cols};
}

/// Copy the part of decoded tile (gi, gj) inside `slab` to its place in
/// `dst` (row r of the selection at dst + r * dst_stride) -- the one
/// tile-intersection copy of the v2 chunked and v3 read paths.
void copy_tile_part(const double* tile, ChunkShape chunk, std::size_t gi,
                    std::size_t gj, const Slab2D& slab, double* dst,
                    std::size_t dst_stride) {
  const std::size_t r_lo = std::max(slab.row_off, gi * chunk.rows);
  const std::size_t r_hi =
      std::min(slab.row_off + slab.row_cnt, (gi + 1) * chunk.rows);
  const std::size_t c_lo = std::max(slab.col_off, gj * chunk.cols);
  const std::size_t c_hi =
      std::min(slab.col_off + slab.col_cnt, (gj + 1) * chunk.cols);
  for (std::size_t r = r_lo; r < r_hi; ++r) {
    const double* src =
        tile + (r - gi * chunk.rows) * chunk.cols + (c_lo - gj * chunk.cols);
    std::copy(src, src + (c_hi - c_lo),
              dst + (r - slab.row_off) * dst_stride + (c_lo - slab.col_off));
  }
}

/// Widen stored rows [r0, r1) of a column run [c0, c0 + n) into the
/// bands that own them; row r's stored elements start at
/// `raw + (r - r0) * raw_stride` bytes.
void route_rows(std::span<const RowBand> bands, DType dtype,
                const std::byte* raw, std::size_t raw_stride, std::size_t r0,
                std::size_t r1, std::size_t c0, std::size_t n) {
  for (const RowBand& b : bands) {
    const std::size_t lo = std::max(r0, b.rows.begin);
    const std::size_t hi = std::min(r1, b.rows.end);
    for (std::size_t r = lo; r < hi; ++r) {
      decode_elems(dtype, raw + (r - r0) * raw_stride, n,
                   b.dst + (r - b.rows.begin) * b.stride + c0);
    }
  }
}

/// A tile loop shared by the calling thread and io_pool() helpers. It
/// lives on the heap, owned by every participant, because a helper may
/// start after the loop is over; such a helper only bumps `next` and
/// leaves, never calling `body`.
struct SharedTileLoop {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  Mutex mu;
  CondVar cv;
  std::size_t finished DASSA_GUARDED_BY(mu) = 0;
  std::exception_ptr error DASSA_GUARDED_BY(mu);

  /// Claim and run tiles until none is left. After a failure the
  /// remaining claims are counted but skipped.
  void drain() {
    for (std::size_t k = next.fetch_add(1); k < n; k = next.fetch_add(1)) {
      std::exception_ptr err;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          (*body)(k);
        } catch (...) {
          err = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      MutexLock lock(mu);
      if (err && !error) error = std::move(err);
      if (++finished == n) cv.notify_all();
    }
  }
};

/// Run body(k) for every k in [0, n) on the calling thread, joined by
/// up to io_pool().size() workers when there are enough tiles to pay
/// for the fan-out. The caller never blocks while tiles remain, and
/// returns only once every claimed tile is finished; the first
/// exception is rethrown.
void run_tiles(std::size_t n, const std::function<void(std::size_t)>& body) {
  auto loop = std::make_shared<SharedTileLoop>();
  loop->n = n;
  loop->body = &body;
  for (std::size_t h = 0; n >= 4 && h < io_pool().size(); ++h) {
    try {
      io_pool().submit([loop] { loop->drain(); });
    } catch (...) {
      break;  // fewer helpers: the caller drains what they leave
    }
  }
  loop->drain();
  std::exception_ptr error;
  {
    MutexLock lock(loop->mu);
    while (loop->finished != n) loop->cv.wait(lock);
    // Taken out, so the exception is released on this thread and not by
    // whichever helper drops the loop last.
    error = std::move(loop->error);
  }
  if (error) std::rethrow_exception(error);
}

void write_elements(OutputFile& out, const Dash5Header& header,
                    std::span<const double> data) {
  if (header.dtype == DType::kF64) {
    out.write(data.data(), data.size_bytes());
  } else {
    std::vector<float> f(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      f[i] = static_cast<float>(data[i]);
    }
    out.write(f.data(), f.size() * sizeof(float));
  }
}

/// Convert a tile to its on-disk element bytes (the codec input).
std::vector<std::byte> elem_bytes(DType dtype, std::span<const double> tile) {
  std::vector<std::byte> raw(tile.size() * dtype_size(dtype));
  if (dtype == DType::kF64) {
    std::memcpy(raw.data(), tile.data(), raw.size());
  } else {
    std::vector<float> f(tile.size());
    for (std::size_t i = 0; i < tile.size(); ++i) {
      f[i] = static_cast<float>(tile[i]);
    }
    std::memcpy(raw.data(), f.data(), raw.size());
  }
  return raw;
}

/// Copy the chunk (gi, gj) out of a row-major array into a dense,
/// zero-padded tile (the v2 and v3 writers share this shape logic).
void fill_tile(const Dash5Header& header, std::span<const double> data,
               std::size_t gi, std::size_t gj, std::vector<double>& tile) {
  std::fill(tile.begin(), tile.end(), 0.0);
  const std::size_t r0 = gi * header.chunk.rows;
  const std::size_t c0 = gj * header.chunk.cols;
  const std::size_t r_cnt = std::min(header.chunk.rows, header.shape.rows - r0);
  const std::size_t c_cnt = std::min(header.chunk.cols, header.shape.cols - c0);
  for (std::size_t r = 0; r < r_cnt; ++r) {
    const double* src = data.data() + header.shape.at(r0 + r, c0);
    std::copy(src, src + c_cnt, tile.data() + r * header.chunk.cols);
  }
}

/// Compressed payload of one chunk: the codec chain's output, or the
/// raw element bytes when compression does not pay (codec flag 0).
/// The raw fallback bounds worst-case file growth at zero: incompres-
/// sible chunks cost exactly their v2 size.
std::pair<std::vector<std::byte>, std::uint8_t> encode_tile(
    const Dash5Header& header, std::span<const double> tile) {
  std::vector<std::byte> raw = elem_bytes(header.dtype, tile);
  std::vector<std::byte> enc =
      encode_chain(header.codec, raw, dtype_size(header.dtype));
  if (enc.size() >= raw.size()) {
    return {std::move(raw), std::uint8_t{0}};
  }
  return {std::move(enc), std::uint8_t{1}};
}

/// Append one encoded chunk: write its bytes, extend the index, and
/// charge the io.codec.* byte counters.
void append_chunk(OutputFile& out, std::vector<ChunkIndexEntry>& index,
                  std::uint64_t& cursor, std::uint64_t raw_size,
                  const std::vector<std::byte>& payload, std::uint8_t codec) {
  ChunkIndexEntry entry;
  entry.offset = cursor;
  entry.csize = payload.size();
  entry.raw_size = raw_size;
  entry.crc = detail::crc32(payload.data(), payload.size());
  entry.codec = codec;
  out.write(payload.data(), payload.size());
  index.push_back(entry);
  cursor += payload.size();
  global_counters().add(counters::kIoCodecBytesRaw, raw_size);
  global_counters().add(counters::kIoCodecBytesStored, payload.size());
  if (codec == 0) {
    global_counters().add(counters::kIoCodecStoredRawChunks, 1);
  }
}

/// Write the v3 footer: index block, its CRC, its size, and the
/// trailing magic that lets the reader find it from the file end.
void write_chunk_index(OutputFile& out,
                       const std::vector<ChunkIndexEntry>& index) {
  const std::vector<std::byte> footer =
      detail::encode_chunk_index_footer(index);
  out.write(footer.data(), footer.size());
}

}  // namespace

namespace detail {

std::vector<std::byte> encode_dash5_header(const Dash5Header& h) {
  return encode_header(h);
}

std::pair<std::vector<std::byte>, std::uint8_t> encode_dash5_tile(
    const Dash5Header& h, std::span<const double> tile) {
  return encode_tile(h, tile);
}

std::vector<std::byte> encode_chunk_index_footer(
    const std::vector<ChunkIndexEntry>& index) {
  Encoder enc;
  for (const ChunkIndexEntry& e : index) {
    enc.u64(e.offset);
    enc.u64(e.csize);
    enc.u64(e.raw_size);
    enc.u32(e.crc);
    enc.u8(e.codec);
  }
  std::vector<std::byte> out = enc.bytes();
  const std::uint32_t crc = crc32(out.data(), out.size());
  const std::uint64_t size = out.size();
  Encoder tail;
  tail.u32(crc);
  tail.u64(size);
  out.insert(out.end(), tail.bytes().begin(), tail.bytes().end());
  const auto* magic = reinterpret_cast<const std::byte*>(kIndexMagic);
  out.insert(out.end(), magic, magic + sizeof kIndexMagic);
  return out;
}

}  // namespace detail

void dash5_write(const std::string& path, const Dash5Header& header,
                 std::span<const double> data) {
  DASSA_TRACE_SPAN("io", "io.write");
  DASSA_CHECK(data.size() == header.shape.size(),
              "data size does not match dataset shape");
  if (header.layout == Layout::kChunked) {
    DASSA_CHECK(header.chunk.rows >= 1 && header.chunk.cols >= 1,
                "chunked layout needs positive chunk extents");
  }
  if (!header.codec.empty()) {
    DASSA_CHECK(header.layout == Layout::kChunked,
                "codec chains require the chunked layout");
  }
  const bool v3 = !header.codec.empty();
  const std::vector<std::byte> head = encode_header(header);

  OutputFile out(path);
  out.write(v3 ? kMagicV3 : kMagic, sizeof kMagic);
  const std::uint64_t head_size = head.size();
  out.write(&head_size, sizeof head_size);
  out.write(head.data(), head.size());

  if (header.layout == Layout::kContiguous) {
    write_elements(out, header, data);
  } else if (!v3) {
    // v2 tiling: chunks in grid row-major order, each a dense
    // chunk_rows x chunk_cols block, zero-padded at the edges.
    const auto [grid_rows, grid_cols] = chunk_grid(header);
    std::vector<double> tile(header.chunk.rows * header.chunk.cols);
    for (std::size_t gi = 0; gi < grid_rows; ++gi) {
      for (std::size_t gj = 0; gj < grid_cols; ++gj) {
        fill_tile(header, data, gi, gj, tile);
        write_elements(out, header, tile);
      }
    }
  } else {
    // v3: same tile order, but each tile runs through the codec chain
    // (in parallel on the I/O pool) and lands with a chunk index entry.
    const auto [grid_rows, grid_cols] = chunk_grid(header);
    const std::size_t n_chunks = grid_rows * grid_cols;
    const std::size_t chunk_elems = header.chunk.rows * header.chunk.cols;
    std::vector<std::vector<std::byte>> payloads(n_chunks);
    std::vector<std::uint8_t> flags(n_chunks, 0);
    if (n_chunks > 0) {
      io_pool().parallel_for(
          n_chunks, [&](std::size_t, std::size_t begin, std::size_t end) {
            std::vector<double> tile(chunk_elems);
            for (std::size_t i = begin; i < end; ++i) {
              fill_tile(header, data, i / grid_cols, i % grid_cols, tile);
              auto [payload, flag] = encode_tile(header, tile);
              payloads[i] = std::move(payload);
              flags[i] = flag;
            }
          });
    }
    const std::uint64_t raw_size = chunk_elems * dtype_size(header.dtype);
    std::uint64_t cursor = kPreludeSize + head_size;
    std::vector<ChunkIndexEntry> index;
    index.reserve(n_chunks);
    for (std::size_t i = 0; i < n_chunks; ++i) {
      append_chunk(out, index, cursor, raw_size, payloads[i], flags[i]);
    }
    write_chunk_index(out, index);
  }
  out.close();
}

Dash5StreamWriter::Dash5StreamWriter(const std::string& path,
                                     const Dash5Header& header)
    : out_(path), header_(header), expected_(header.shape.size()) {
  const bool v3 = !header_.codec.empty();
  if (v3) {
    DASSA_CHECK(header_.layout == Layout::kChunked,
                "codec chains require the chunked layout");
    DASSA_CHECK(header_.chunk.rows >= 1 && header_.chunk.cols >= 1,
                "chunked layout needs positive chunk extents");
    band_.resize(header_.chunk.rows * header_.shape.cols);
  } else {
    DASSA_CHECK(header_.layout == Layout::kContiguous,
                "stream writer supports the contiguous layout only");
  }
  const std::vector<std::byte> head = encode_header(header_);
  out_.write(v3 ? kMagicV3 : kMagic, sizeof kMagic);
  const std::uint64_t head_size = head.size();
  out_.write(&head_size, sizeof head_size);
  out_.write(head.data(), head.size());
  cursor_ = kPreludeSize + head_size;
}

void Dash5StreamWriter::append(std::span<const double> data) {
  DASSA_CHECK(!closed_, "append on closed stream writer");
  DASSA_CHECK(written_ + data.size() <= expected_,
              "stream writer overflow: more elements than the header shape");
  if (header_.codec.empty()) {
    if (header_.dtype == DType::kF64) {
      out_.write(data.data(), data.size_bytes());
    } else {
      std::vector<float> f(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        f[i] = static_cast<float>(data[i]);
      }
      out_.write(f.data(), f.size() * sizeof(float));
    }
  } else {
    // Stage into the band buffer; every full band (chunk.rows complete
    // rows) is tiled and flushed, keeping memory at one band.
    std::size_t consumed = 0;
    while (consumed < data.size()) {
      const std::size_t take =
          std::min(band_.size() - band_fill_, data.size() - consumed);
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                data.begin() + static_cast<std::ptrdiff_t>(consumed + take),
                band_.begin() + static_cast<std::ptrdiff_t>(band_fill_));
      band_fill_ += take;
      consumed += take;
      if (band_fill_ == band_.size()) flush_band();
    }
  }
  written_ += data.size();
}

void Dash5StreamWriter::flush_band() {
  if (band_fill_ == 0) return;
  // Zero-fill the tail rows of a partial final band: tiles are always
  // stored at full chunk size, zero-padded, exactly like dash5_write.
  std::fill(band_.begin() + static_cast<std::ptrdiff_t>(band_fill_),
            band_.end(), 0.0);
  const ChunkShape chunk = header_.chunk;
  const std::size_t cols = header_.shape.cols;
  const std::size_t grid_cols = (cols + chunk.cols - 1) / chunk.cols;
  const std::size_t chunk_elems = chunk.rows * chunk.cols;
  std::vector<std::vector<std::byte>> payloads(grid_cols);
  std::vector<std::uint8_t> flags(grid_cols, 0);
  io_pool().parallel_for(
      grid_cols, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<double> tile(chunk_elems);
        for (std::size_t gj = begin; gj < end; ++gj) {
          std::fill(tile.begin(), tile.end(), 0.0);
          const std::size_t c0 = gj * chunk.cols;
          const std::size_t c_cnt = std::min(chunk.cols, cols - c0);
          for (std::size_t r = 0; r < chunk.rows; ++r) {
            const double* src = band_.data() + r * cols + c0;
            std::copy(src, src + c_cnt, tile.data() + r * chunk.cols);
          }
          auto [payload, flag] = encode_tile(header_, tile);
          payloads[gj] = std::move(payload);
          flags[gj] = flag;
        }
      });
  const std::uint64_t raw_size = chunk_elems * dtype_size(header_.dtype);
  for (std::size_t gj = 0; gj < grid_cols; ++gj) {
    append_chunk(out_, index_, cursor_, raw_size, payloads[gj], flags[gj]);
  }
  band_fill_ = 0;
}

void Dash5StreamWriter::close() {
  if (closed_) return;
  if (written_ != expected_) {
    throw StateError("stream writer closed after " +
                     std::to_string(written_) + " of " +
                     std::to_string(expected_) + " elements");
  }
  if (!header_.codec.empty()) {
    flush_band();
    write_chunk_index(out_, index_);
  }
  out_.close();
  closed_ = true;
}

void Dash5File::set_readahead(bool on) {
  g_readahead.store(on, std::memory_order_relaxed);
}

bool Dash5File::readahead_enabled() {
  return g_readahead.load(std::memory_order_relaxed);
}

Dash5File::Dash5File(const std::string& path) : file_(path) {
  DASSA_TRACE_SPAN("io", "io.open");
  char magic[8];
  std::uint64_t head_size = 0;
  if (file_.size() < kPreludeSize) {
    throw FormatError("file too small to be DASH5: " + path);
  }
  // One read covers magic + header size + header block.
  file_.read_at(0, magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof magic - 1) != 0 ||
      (magic[7] != kMagic[7] && magic[7] != kMagicV3[7])) {
    throw FormatError("bad magic in " + path);
  }
  version_ = static_cast<std::uint8_t>(magic[7]);
  file_.read_at(8, &head_size, sizeof head_size);
  // Subtraction form: `kPreludeSize + head_size` wraps for a corrupted
  // size near 2^64 and would slip past the check into a huge read.
  if (head_size > file_.size() - kPreludeSize) {
    throw FormatError("header exceeds file in " + path);
  }
  const std::vector<std::byte> raw =
      file_.read_vec(kPreludeSize, static_cast<std::size_t>(head_size));
  header_ = decode_header(raw, path, version_);
  data_offset_ = kPreludeSize + head_size;

  // decode_header rejected extent-product overflow, but the chunked
  // stored size rounds each axis up to whole tiles, so recheck every
  // product here; then bound the element count by the bytes actually
  // present (division form -- the multiplied form wraps for corrupted
  // extents and would admit a shape far larger than the file).
  std::uint64_t stored_elems = header_.shape.size();
  if (header_.layout == Layout::kChunked) {
    const std::uint64_t grid_rows =
        header_.shape.rows / header_.chunk.rows +
        (header_.shape.rows % header_.chunk.rows != 0 ? 1 : 0);
    const std::uint64_t grid_cols =
        header_.shape.cols / header_.chunk.cols +
        (header_.shape.cols % header_.chunk.cols != 0 ? 1 : 0);
    const std::uint64_t chunk_elems = header_.chunk.rows * header_.chunk.cols;
    if (mul_overflows(grid_rows, grid_cols) ||
        mul_overflows(grid_rows * grid_cols, chunk_elems)) {
      throw FormatError("chunk grid overflow in " + path);
    }
    stored_elems = grid_rows * grid_cols * chunk_elems;
  }
  if (version_ >= 3) {
    // Chunk sizes are variable: the chunk index footer, not the shape,
    // says how many bytes are present. parse_chunk_index() validates
    // every entry against the file extents.
    parse_chunk_index();
    file_id_ = ChunkCache::next_file_id();
    prefetch_ = std::make_unique<Prefetch>();
    return;
  }
  const std::uint64_t avail = file_.size() - data_offset_;
  if (stored_elems >
      avail / static_cast<std::uint64_t>(dtype_size(header_.dtype))) {
    throw FormatError("dataset truncated in " + path);
  }
}

/// Readahead state. Tasks run on io_pool() and must stay leaf work
/// (a prefetch task never fans out again); the destructor closes the
/// gate and drains in-flight tasks before the file handle dies.
struct Dash5File::Prefetch {
  Mutex mu;
  CondVar cv;
  std::size_t inflight DASSA_GUARDED_BY(mu) = 0;
  bool closed DASSA_GUARDED_BY(mu) = false;
  std::set<std::pair<std::size_t, std::size_t>> pending DASSA_GUARDED_BY(mu);
  // Stride detector: two consecutive equal window steps arm the
  // prefetcher (sequential scans and strided sweeps both qualify).
  bool have_prev DASSA_GUARDED_BY(mu) = false;
  bool have_delta DASSA_GUARDED_BY(mu) = false;
  std::ptrdiff_t prev_gi DASSA_GUARDED_BY(mu) = 0;
  std::ptrdiff_t prev_gj DASSA_GUARDED_BY(mu) = 0;
  std::ptrdiff_t dgi DASSA_GUARDED_BY(mu) = 0;
  std::ptrdiff_t dgj DASSA_GUARDED_BY(mu) = 0;
};

Dash5File::~Dash5File() {
  if (prefetch_) {
    MutexLock lock(prefetch_->mu);
    prefetch_->closed = true;
    while (prefetch_->inflight != 0) prefetch_->cv.wait(lock);
  }
  if (file_id_ != 0) ChunkCache::global().erase_file(file_id_);
}

void Dash5File::drain_prefetch() const {
  if (!prefetch_) return;
  MutexLock lock(prefetch_->mu);
  while (prefetch_->inflight != 0) prefetch_->cv.wait(lock);
}

void Dash5File::parse_chunk_index() {
  const std::string& p = file_.path();
  const std::uint64_t fsize = file_.size();
  const auto [grid_rows, grid_cols] = chunk_grid(header_);
  const std::uint64_t n_chunks =
      static_cast<std::uint64_t>(grid_rows) * grid_cols;

  if (fsize - data_offset_ < kFooterTail) {
    throw FormatError("v3 file too small for its chunk index footer: " + p);
  }
  char magic[8];
  std::uint64_t index_size = 0;
  file_.read_at(fsize - 8, magic, sizeof magic);
  if (std::memcmp(magic, kIndexMagic, sizeof magic) != 0) {
    throw FormatError("bad chunk index magic in " + p);
  }
  file_.read_at(fsize - 16, &index_size, sizeof index_size);
  if (mul_overflows(n_chunks, kIndexEntrySize) ||
      index_size != n_chunks * kIndexEntrySize) {
    throw FormatError("chunk index size mismatch in " + p);
  }
  if (index_size > fsize - data_offset_ - kFooterTail) {
    throw FormatError("chunk index exceeds file in " + p);
  }
  const std::uint64_t index_start = fsize - kFooterTail - index_size;
  std::uint32_t stored_crc = 0;
  file_.read_at(fsize - kFooterTail, &stored_crc, sizeof stored_crc);
  const std::vector<std::byte> block =
      file_.read_vec(index_start, static_cast<std::size_t>(index_size));
  if (detail::crc32(block.data(), block.size()) != stored_crc) {
    throw FormatError("chunk index CRC mismatch in " + p);
  }

  const std::uint64_t chunk_bytes =
      static_cast<std::uint64_t>(header_.chunk.rows) * header_.chunk.cols *
      dtype_size(header_.dtype);
  detail::Decoder dec(block);
  index_.reserve(n_chunks);
  // Chunks are densely packed from the data offset: each entry must
  // start exactly where the previous one ended and stay below the
  // index block, which makes overlap and overflow unrepresentable.
  std::uint64_t cursor = data_offset_;
  for (std::uint64_t i = 0; i < n_chunks; ++i) {
    ChunkIndexEntry e;
    e.offset = dec.u64();
    e.csize = dec.u64();
    e.raw_size = dec.u64();
    e.crc = dec.u32();
    e.codec = dec.u8();
    if (e.offset != cursor) {
      throw FormatError("chunk index offsets not densely packed in " + p);
    }
    if (e.csize > index_start - cursor) {
      throw FormatError("chunk overruns the index block in " + p);
    }
    if (e.raw_size != chunk_bytes) {
      throw FormatError("chunk raw size disagrees with the header in " + p);
    }
    if (e.codec > 1) {
      throw FormatError("chunk codec flag out of range in " + p);
    }
    if (e.codec == 0 && e.csize != e.raw_size) {
      throw FormatError("raw-stored chunk with a compressed size in " + p);
    }
    cursor += e.csize;
    index_.push_back(e);
  }
}

const std::byte* Dash5File::chunk_elements(
    std::size_t chunk_idx, std::span<const std::byte> stored,
    std::vector<std::byte>& scratch) const {
  DASSA_TRACE_SPAN("codec", "codec.decode_chunk");
  const ChunkIndexEntry& e = index_[chunk_idx];
  if (detail::crc32(stored.data(), stored.size()) != e.crc) {
    throw FormatError("chunk " + std::to_string(chunk_idx) +
                      " CRC mismatch in " + file_.path());
  }
  if (e.codec == 0) return stored.data();
  scratch = decode_chain(header_.codec, stored, dtype_size(header_.dtype),
                         static_cast<std::size_t>(e.raw_size));
  return scratch.data();
}

std::vector<double> Dash5File::decode_chunk(
    std::size_t chunk_idx, std::span<const std::byte> stored) const {
  DASSA_CHECK(chunk_idx < index_.size(), "chunk index out of range");
  std::vector<std::byte> scratch;
  const std::byte* raw = chunk_elements(chunk_idx, stored, scratch);
  std::vector<double> tile(header_.chunk.rows * header_.chunk.cols);
  decode_elems(header_.dtype, raw, tile.size(), tile.data());
  return tile;
}

std::shared_ptr<const std::vector<double>> Dash5File::load_tile(
    std::size_t gi, std::size_t gj) const {
  DASSA_TRACE_SPAN("cache", "cache.load_tile");
  const auto [grid_rows, grid_cols] = chunk_grid(header_);
  const ChunkKey key{file_id_, gi, gj};
  ChunkCache& cache = ChunkCache::global();
  if (ChunkData hit = cache.get(key)) return hit;
  const ChunkIndexEntry& e = index_[gi * grid_cols + gj];
  std::vector<std::byte> stored;
  {
    MutexLock lock(io_mu_);
    stored = file_.read_vec(e.offset, static_cast<std::size_t>(e.csize));
  }
  auto tile = std::make_shared<const std::vector<double>>(
      decode_chunk(gi * grid_cols + gj, stored));
  cache.put(key, tile);
  return tile;
}

Dash5Header Dash5File::read_header(const std::string& path) {
  Dash5File f(path);
  return f.header_;
}

void Dash5File::read_slab_into(const Slab2D& slab, double* dst,
                               std::size_t dst_stride) const {
  slab.validate_against(header_.shape);
  if (slab == Slab2D::whole(header_.shape) && !slab.empty()) {
    const RowBand band{{0, slab.row_cnt}, dst, dst_stride};
    scan_into({&band, 1});
    return;
  }
  read_window_into(slab, dst, dst_stride);
}

void Dash5File::read_window_into(const Slab2D& slab, double* dst,
                                 std::size_t dst_stride) const {
  DASSA_TRACE_SPAN("io", "io.read_slab");
  slab.validate_against(header_.shape);
  DASSA_CHECK(dst_stride >= slab.col_cnt,
              "destination stride narrower than the selection");
  if (slab.empty()) return;
  if (version_ >= 3) {
    read_v3_into(slab, dst, dst_stride);
    return;
  }

  const std::size_t esize = dtype_size(header_.dtype);
  if (header_.layout == Layout::kChunked) {
    // One contiguous read per intersecting chunk tile, then copy the
    // intersection out -- the HDF5 chunked-access pattern. Partial-width
    // selections touch O(selection/chunk) tiles instead of one request
    // per row.
    const auto [grid_rows, grid_cols] = chunk_grid(header_);
    const std::size_t chunk_elems = header_.chunk.rows * header_.chunk.cols;
    std::vector<double> tile(chunk_elems);
    const TileSpan span = tile_span(header_.chunk, slab);
    for (std::size_t gi = span.gi_lo; gi <= span.gi_hi; ++gi) {
      for (std::size_t gj = span.gj_lo; gj <= span.gj_hi; ++gj) {
        const std::uint64_t off =
            data_offset_ +
            static_cast<std::uint64_t>(gi * grid_cols + gj) * chunk_elems *
                esize;
        std::vector<std::byte> raw;
        {
          MutexLock lock(io_mu_);
          raw = file_.read_vec(off, chunk_elems * esize);
        }
        decode_elems(header_.dtype, raw.data(), chunk_elems, tile.data());
        copy_tile_part(tile.data(), header_.chunk, gi, gj, slab, dst,
                       dst_stride);
      }
    }
    return;
  }

  if (slab.col_cnt == header_.shape.cols) {
    // Full-width row block: contiguous on disk, one read call.
    const std::uint64_t off =
        data_offset_ + static_cast<std::uint64_t>(
                           header_.shape.at(slab.row_off, 0)) * esize;
    std::vector<std::byte> raw;
    {
      MutexLock lock(io_mu_);
      raw = file_.read_vec(off, slab.size() * esize);
    }
    for (std::size_t r = 0; r < slab.row_cnt; ++r) {
      decode_elems(header_.dtype, raw.data() + r * slab.col_cnt * esize,
                   slab.col_cnt, dst + r * dst_stride);
    }
  } else {
    // Partial width: one read per selected row. This is the small-I/O
    // pattern whose amplification across many files motivates the
    // communication-avoiding reader.
    for (std::size_t r = 0; r < slab.row_cnt; ++r) {
      const std::uint64_t off =
          data_offset_ +
          static_cast<std::uint64_t>(
              header_.shape.at(slab.row_off + r, slab.col_off)) * esize;
      std::vector<std::byte> raw;
      {
        MutexLock lock(io_mu_);
        raw = file_.read_vec(off, slab.col_cnt * esize);
      }
      decode_elems(header_.dtype, raw.data(), slab.col_cnt,
                   dst + r * dst_stride);
    }
  }
}

void Dash5File::scan_into(std::span<const RowBand> bands) const {
  const Shape2D shape = header_.shape;
  std::size_t next_row = 0;
  for (const RowBand& b : bands) {
    DASSA_CHECK(b.rows.begin == next_row && b.rows.end >= b.rows.begin,
                "scan bands must tile the rows in order");
    DASSA_CHECK(b.dst != nullptr || b.rows.size() == 0,
                "scan band without a destination");
    DASSA_CHECK(b.stride >= shape.cols,
                "scan band stride narrower than the dataset");
    next_row = b.rows.end;
  }
  DASSA_CHECK(next_row == shape.rows, "scan bands must cover every row");
  if (shape.empty()) return;
  DASSA_TRACE_SPAN("io", "io.read_slab");

  // The data region in one read: dense rows, dense padded tiles, or the
  // densely packed v3 chunks (parse_chunk_index checked the packing).
  const DType dtype = header_.dtype;
  const std::size_t esize = dtype_size(dtype);
  const std::size_t chunk_elems = header_.chunk.rows * header_.chunk.cols;
  const auto [grid_rows, grid_cols] = header_.layout == Layout::kChunked
                                          ? chunk_grid(header_)
                                          : std::pair<std::size_t, std::size_t>{};
  std::size_t stored_bytes = shape.size() * esize;
  if (version_ >= 3) {
    stored_bytes = static_cast<std::size_t>(
        index_.back().offset + index_.back().csize - data_offset_);
  } else if (header_.layout == Layout::kChunked) {
    stored_bytes = grid_rows * grid_cols * chunk_elems * esize;
  }
  std::vector<std::byte> stored;
  {
    MutexLock lock(io_mu_);
    stored = file_.read_vec(data_offset_, stored_bytes);
  }

  if (header_.layout == Layout::kContiguous) {
    route_rows(bands, dtype, stored.data(), shape.cols * esize, 0, shape.rows,
               0, shape.cols);
    return;
  }
  // Tile k's rows and columns inside the dataset, widened into the
  // bands from its raw element bytes.
  const auto route_tile = [&](std::size_t k, const std::byte* raw) {
    const std::size_t r0 = (k / grid_cols) * header_.chunk.rows;
    const std::size_t c0 = (k % grid_cols) * header_.chunk.cols;
    route_rows(bands, dtype, raw, header_.chunk.cols * esize, r0,
               std::min(shape.rows, r0 + header_.chunk.rows), c0,
               std::min(shape.cols - c0, header_.chunk.cols));
  };
  if (version_ < 3) {
    for (std::size_t k = 0; k < grid_rows * grid_cols; ++k) {
      route_tile(k, stored.data() + k * chunk_elems * esize);
    }
    return;
  }
  run_tiles(index_.size(), [&](std::size_t k) {
    const ChunkIndexEntry& e = index_[k];
    const std::span<const std::byte> tile{
        stored.data() + (e.offset - data_offset_),
        static_cast<std::size_t>(e.csize)};
    std::vector<std::byte> scratch;
    route_tile(k, chunk_elements(k, tile, scratch));
  });
}

void Dash5File::read_v3_into(const Slab2D& slab, double* dst,
                             std::size_t dst_stride) const {
  DASSA_TRACE_SPAN("cache", "cache.window_gather");
  DASSA_CHECK(!slab.empty(), "a window gather needs a non-empty selection");
  const auto [gi_lo, gi_hi, gj_lo, gj_hi] = tile_span(header_.chunk, slab);

  // Gather the window's tiles: cache hits immediately, misses as a
  // batch — stored bytes are read serially (one I/O pass), then
  // decoded in parallel on the I/O pool when the batch is large
  // enough to pay for the fan-out.
  struct Want {
    std::size_t gi, gj;
    ChunkData tile;
  };
  std::vector<Want> wants;
  wants.reserve((gi_hi - gi_lo + 1) * (gj_hi - gj_lo + 1));
  for (std::size_t gi = gi_lo; gi <= gi_hi; ++gi) {
    for (std::size_t gj = gj_lo; gj <= gj_hi; ++gj) {
      wants.push_back({gi, gj, ChunkCache::global().get({file_id_, gi, gj})});
    }
  }
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < wants.size(); ++i) {
    if (!wants[i].tile) misses.push_back(i);
  }
  if (!misses.empty()) {
    const auto [grid_rows, grid_cols] = chunk_grid(header_);
    std::vector<std::vector<std::byte>> stored(misses.size());
    {
      MutexLock lock(io_mu_);
      for (std::size_t k = 0; k < misses.size(); ++k) {
        const Want& w = wants[misses[k]];
        const ChunkIndexEntry& e = index_[w.gi * grid_cols + w.gj];
        stored[k] = file_.read_vec(e.offset, static_cast<std::size_t>(e.csize));
      }
    }
    const auto decode_one = [&](std::size_t k) {
      Want& w = wants[misses[k]];
      w.tile = std::make_shared<const std::vector<double>>(
          decode_chunk(w.gi * grid_cols + w.gj, stored[k]));
      ChunkCache::global().put({file_id_, w.gi, w.gj}, w.tile);
    };
    if (misses.size() >= 4) {
      io_pool().parallel_for(misses.size(),
                             [&](std::size_t, std::size_t b, std::size_t e) {
                               for (std::size_t k = b; k < e; ++k) {
                                 decode_one(k);
                               }
                             });
    } else {
      for (std::size_t k = 0; k < misses.size(); ++k) decode_one(k);
    }
  }

  for (const Want& w : wants) {
    copy_tile_part(w.tile->data(), header_.chunk, w.gi, w.gj, slab, dst,
                   dst_stride);
  }

  maybe_prefetch(gi_lo, gi_hi, gj_lo, gj_hi);
}

void Dash5File::maybe_prefetch(std::size_t gi_lo, std::size_t gi_hi,
                               std::size_t gj_lo, std::size_t gj_hi) const {
  if (!readahead_enabled()) return;
  Prefetch& pf = *prefetch_;
  const auto [grid_rows, grid_cols] = chunk_grid(header_);
  std::vector<std::pair<std::size_t, std::size_t>> targets;
  {
    MutexLock lock(pf.mu);
    if (pf.closed) return;
    const auto gi = static_cast<std::ptrdiff_t>(gi_lo);
    const auto gj = static_cast<std::ptrdiff_t>(gj_lo);
    if (pf.have_prev) {
      const std::ptrdiff_t dgi = gi - pf.prev_gi;
      const std::ptrdiff_t dgj = gj - pf.prev_gj;
      if (pf.have_delta && dgi == pf.dgi && dgj == pf.dgj &&
          (dgi != 0 || dgj != 0)) {
        // Two consecutive equal steps: predict the next window (the
        // current one shifted by the stride, clipped to the grid).
        for (std::size_t wi = gi_lo; wi <= gi_hi; ++wi) {
          for (std::size_t wj = gj_lo; wj <= gj_hi; ++wj) {
            const auto ti = static_cast<std::ptrdiff_t>(wi) + dgi;
            const auto tj = static_cast<std::ptrdiff_t>(wj) + dgj;
            if (ti < 0 || tj < 0 ||
                ti >= static_cast<std::ptrdiff_t>(grid_rows) ||
                tj >= static_cast<std::ptrdiff_t>(grid_cols)) {
              continue;
            }
            const std::pair<std::size_t, std::size_t> t{
                static_cast<std::size_t>(ti), static_cast<std::size_t>(tj)};
            if (pf.pending.insert(t).second) {
              targets.push_back(t);
              ++pf.inflight;
            }
          }
        }
      }
      pf.dgi = dgi;
      pf.dgj = dgj;
      pf.have_delta = true;
    }
    pf.prev_gi = gi;
    pf.prev_gj = gj;
    pf.have_prev = true;
  }
  for (const auto& t : targets) {
    global_counters().add(counters::kIoCachePrefetchIssued, 1);
    io_pool().submit([this, t] {
      bool run = false;
      {
        MutexLock lock(prefetch_->mu);
        run = !prefetch_->closed;
      }
      if (run) {
        // Background warm-up is best-effort: a corrupt chunk must
        // surface on the foreground read that needs it, not here.
        DASSA_TRACE_SPAN("cache", "cache.prefetch");
        try {
          (void)load_tile(t.first, t.second);
        } catch (const std::exception&) {
        }
      }
      MutexLock lock(prefetch_->mu);
      prefetch_->pending.erase(t);
      --prefetch_->inflight;
      prefetch_->cv.notify_all();
    });
  }
}

}  // namespace dassa::io
