#include "dassa/io/repack.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "dassa/common/counters.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/common/timer.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dassa/io/file_io.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/mpi/runtime.hpp"
#include "dash5_detail.hpp"
#include "serialize.hpp"

namespace dassa::io {

namespace {

/// One output chunk owned by this rank, in grid row-major order.
struct OwnedChunk {
  std::size_t id = 0;  ///< gi * grid_cols + gj
  std::vector<std::byte> payload;
  std::uint8_t codec = 0;
  std::uint64_t source_bytes = 0;  ///< raw element bytes read for it
};

/// Read chunk `id`'s slab out of the VCA straight into a zero-padded
/// chunk.rows x chunk.cols tile — the same tile bytes
/// dash5_write's fill_tile produces from the merged array, which is
/// what makes the parallel output byte-identical to the serial one.
void fill_tile_from_vca(const Vca& vca, const Dash5Header& header,
                        std::size_t grid_cols, std::size_t id,
                        std::vector<double>& tile) {
  std::fill(tile.begin(), tile.end(), 0.0);
  const std::size_t gi = id / grid_cols;
  const std::size_t gj = id % grid_cols;
  const std::size_t r0 = gi * header.chunk.rows;
  const std::size_t c0 = gj * header.chunk.cols;
  const std::size_t r_cnt =
      std::min(header.chunk.rows, header.shape.rows - r0);
  const std::size_t c_cnt =
      std::min(header.chunk.cols, header.shape.cols - c0);
  vca.read_slab_into(Slab2D{r0, c0, r_cnt, c_cnt}, tile.data(),
                     header.chunk.cols);
}

}  // namespace

RepackReport parallel_repack(mpi::Comm& comm,
                             const std::vector<std::string>& inputs,
                             const std::string& out_path,
                             const RepackOptions& opts) {
  WallTimer timer;
  DASSA_CHECK(!inputs.empty(), "parallel repack needs input files");
  DASSA_CHECK(!opts.codec.empty(),
              "parallel repack targets v3 output and needs a codec chain");
  DASSA_CHECK(opts.chunk.rows >= 1 && opts.chunk.cols >= 1,
              "parallel repack needs positive chunk extents");
  DASSA_CHECK(opts.encode_batch >= 1,
              "parallel repack needs a positive encode batch");
  const auto p = static_cast<std::size_t>(comm.size());
  const auto rank = static_cast<std::size_t>(comm.rank());

  // ---- plan: headers only, identical on every rank -------------------
  Vca vca;
  Dash5Header header;
  std::vector<std::byte> head;
  {
    DASSA_TRACE_SPAN("repack", "repack.plan");
    vca = Vca::build(inputs);
    header = Dash5File::read_header(inputs.front());
    header.shape = vca.shape();
    header.layout = Layout::kChunked;
    header.chunk = opts.chunk;
    header.codec = opts.codec;
    head = detail::encode_dash5_header(header);
  }
  const std::size_t grid_rows =
      (header.shape.rows + header.chunk.rows - 1) / header.chunk.rows;
  const std::size_t grid_cols =
      (header.shape.cols + header.chunk.cols - 1) / header.chunk.cols;
  const std::size_t n_chunks = grid_rows * grid_cols;
  const std::uint64_t data_start = detail::kPreludeSize + head.size();
  const Range mine = even_chunk(n_chunks, p, rank);

  // ---- encode: this rank's contiguous chunk range --------------------
  // Tiles are read from the VCA serially (member handles serialise
  // their own I/O) and encoded in io_pool batches; the batch bounds the
  // staging memory for decoded tiles, while the compressed payloads of
  // the whole range are retained for the single positioned write.
  std::vector<OwnedChunk> owned(mine.size());
  const std::size_t chunk_elems = header.chunk.rows * header.chunk.cols;
  const std::uint64_t tile_raw_size = chunk_elems * dtype_size(header.dtype);
  {
    DASSA_TRACE_SPAN("repack", "repack.encode");
    std::vector<std::vector<double>> tiles(opts.encode_batch);
    for (std::size_t b0 = 0; b0 < owned.size(); b0 += opts.encode_batch) {
      const std::size_t batch =
          std::min(opts.encode_batch, owned.size() - b0);
      for (std::size_t k = 0; k < batch; ++k) {
        OwnedChunk& c = owned[b0 + k];
        c.id = mine.begin + b0 + k;
        tiles[k].resize(chunk_elems);
        fill_tile_from_vca(vca, header, grid_cols, c.id, tiles[k]);
        const std::size_t r_cnt = std::min(
            header.chunk.rows,
            header.shape.rows - (c.id / grid_cols) * header.chunk.rows);
        const std::size_t c_cnt = std::min(
            header.chunk.cols,
            header.shape.cols - (c.id % grid_cols) * header.chunk.cols);
        c.source_bytes = r_cnt * c_cnt * dtype_size(header.dtype);
      }
      io_pool().parallel_for(
          batch, [&](std::size_t, std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
              auto [payload, flag] =
                  detail::encode_dash5_tile(header, tiles[k]);
              owned[b0 + k].payload = std::move(payload);
              owned[b0 + k].codec = flag;
            }
          });
    }
  }

  // ---- extents: one allgather of compressed sizes --------------------
  // Every rank learns every chunk's compressed size, so global offsets
  // are a local prefix sum: no serial coordinator touches the data.
  std::vector<std::uint64_t> all_sizes(n_chunks, 0);
  std::uint64_t payload_bytes = 0;
  {
    DASSA_TRACE_SPAN("repack", "repack.extents");
    std::vector<std::uint64_t> my_sizes(owned.size());
    for (std::size_t k = 0; k < owned.size(); ++k) {
      my_sizes[k] = owned[k].payload.size();
    }
    const std::vector<std::vector<std::uint64_t>> gathered =
        comm.allgatherv(std::span<const std::uint64_t>(my_sizes));
    std::size_t at = 0;
    for (const auto& part : gathered) {
      for (const std::uint64_t s : part) all_sizes[at++] = s;
    }
    DASSA_CHECK(at == n_chunks,
                "repack size exchange lost chunks (collective mismatch?)");
    payload_bytes =
        std::accumulate(all_sizes.begin(), all_sizes.end(), std::uint64_t{0});
  }
  std::uint64_t my_offset = data_start;
  for (std::size_t i = 0; i < mine.begin; ++i) my_offset += all_sizes[i];

  // ---- write: prelude + header on rank 0, then disjoint extents ------
  {
    DASSA_TRACE_SPAN("repack", "repack.write");
    if (comm.rank() == 0) {
      OutputFile out(out_path);
      out.write(detail::kMagicV3, sizeof detail::kMagicV3);
      const std::uint64_t head_size = head.size();
      out.write(&head_size, sizeof head_size);
      out.write(head.data(), head.size());
      out.close();
    }
    // The file must exist (and own its prelude) before any update-mode
    // open; positioned writes then extend it to each rank's extent.
    comm.barrier();
    if (!owned.empty()) {
      std::uint64_t range_bytes = 0;
      for (const OwnedChunk& c : owned) range_bytes += c.payload.size();
      std::vector<std::byte> blob;
      blob.reserve(range_bytes);
      for (const OwnedChunk& c : owned) {
        blob.insert(blob.end(), c.payload.begin(), c.payload.end());
      }
      OutputFile out(out_path, OutputFile::Mode::kUpdate);
      out.write_at(my_offset, blob.data(), blob.size());
      out.close();
    }
  }

  // ---- merge index: 29 bytes per chunk to rank 0 ---------------------
  std::uint64_t footer_bytes = 0;
  {
    DASSA_TRACE_SPAN("repack", "repack.merge_index");
    std::vector<ChunkIndexEntry> my_entries(owned.size());
    std::uint64_t cursor = my_offset;
    for (std::size_t k = 0; k < owned.size(); ++k) {
      ChunkIndexEntry& e = my_entries[k];
      e.offset = cursor;
      e.csize = owned[k].payload.size();
      e.raw_size = tile_raw_size;
      e.crc = detail::crc32(owned[k].payload.data(),
                            owned[k].payload.size());
      e.codec = owned[k].codec;
      cursor += e.csize;
    }
    const std::vector<std::vector<ChunkIndexEntry>> gathered =
        comm.gatherv(std::span<const ChunkIndexEntry>(my_entries), 0);
    std::vector<std::uint64_t> footer_box(1, 0);
    if (comm.rank() == 0) {
      std::vector<ChunkIndexEntry> index;
      index.reserve(n_chunks);
      for (const auto& part : gathered) {
        index.insert(index.end(), part.begin(), part.end());
      }
      DASSA_CHECK(index.size() == n_chunks,
                  "repack index merge lost chunks (collective mismatch?)");
      const std::vector<std::byte> footer =
          detail::encode_chunk_index_footer(index);
      OutputFile out(out_path, OutputFile::Mode::kUpdate);
      out.write_at(data_start + payload_bytes, footer.data(), footer.size());
      out.close();
      footer_box[0] = footer.size();
    }
    comm.bcast(footer_box, 0);
    footer_bytes = footer_box[0];
    // The footer write completes the file; ranks may re-open it for
    // verification as soon as the barrier releases them.
    comm.barrier();
  }

  // ---- report + accounting -------------------------------------------
  std::uint64_t my_source = 0;
  std::uint64_t my_stored = 0;
  for (const OwnedChunk& c : owned) {
    my_source += c.source_bytes;
    my_stored += c.payload.size();
  }
  global_counters().add(counters::kIoRepackChunks, owned.size());
  global_counters().add(counters::kIoRepackSourceBytes, my_source);
  global_counters().add(counters::kIoRepackStoredBytes, my_stored);
  if (comm.rank() == 0) {
    global_counters().add(counters::kIoRepackRuns, 1);
  }

  RepackReport report;
  report.shape = header.shape;
  report.n_chunks = n_chunks;
  report.out_bytes = data_start + payload_bytes + footer_bytes;
  report.index_bytes = footer_bytes;
  report.rank_source_bytes.assign(p, 0);
  report.rank_chunks.assign(p, 0);
  {
    const std::vector<std::uint64_t> my_stats = {
        my_source, static_cast<std::uint64_t>(owned.size())};
    const std::vector<std::vector<std::uint64_t>> gathered =
        comm.allgatherv(std::span<const std::uint64_t>(my_stats));
    for (std::size_t r = 0; r < p; ++r) {
      report.rank_source_bytes[r] = gathered[r][0];
      report.rank_chunks[r] = gathered[r][1];
    }
  }
  report.seconds = timer.seconds();
  if (comm.rank() == 0) {
    DASSA_SLOG(kInfo, "repack.parallel")
            .field("ranks", static_cast<std::uint64_t>(p))
            .field("chunks", static_cast<std::uint64_t>(n_chunks))
            .field("out_bytes", report.out_bytes)
            .field("max_rank_source_bytes",
                   *std::max_element(report.rank_source_bytes.begin(),
                                     report.rank_source_bytes.end()))
        << report.seconds << "s";
  }
  return report;
}

RepackReport parallel_repack(const std::vector<std::string>& inputs,
                             const std::string& out_path,
                             const RepackOptions& opts, int ranks) {
  DASSA_CHECK(ranks >= 1, "parallel repack needs at least one rank");
  RepackReport root_report;
  mpi::Runtime::run(ranks, [&](mpi::Comm& comm) {
    RepackReport r = parallel_repack(comm, inputs, out_path, opts);
    if (comm.rank() == 0) root_report = std::move(r);
  });
  return root_report;
}

}  // namespace dassa::io
