#include "dassa/io/par_read.hpp"

#include <algorithm>

#include "dassa/common/trace.hpp"
#include "dassa/io/dash5.hpp"

namespace dassa::io {

namespace {

/// Copy `src_rows x src_cols` row-major `src` rows into `dst` (whose
/// row stride is `dst_stride`) starting at column `dst_col`.
void place_block(const double* src, std::size_t src_rows,
                 std::size_t src_cols, double* dst, std::size_t dst_stride,
                 std::size_t dst_col) {
  for (std::size_t r = 0; r < src_rows; ++r) {
    std::copy(src + r * src_cols, src + (r + 1) * src_cols,
              dst + r * dst_stride + dst_col);
  }
}

/// The rank's result, sized once: owned rows `rows` of a `cols`-wide
/// array plus `halo` ghost rows, all zero.
ParallelReadResult make_result(Range rows, std::size_t cols, RowHalo halo) {
  ParallelReadResult result;
  result.rows = rows;
  result.shape = {rows.size(), cols};
  result.halo = halo;
  result.data.assign((halo.lo + rows.size() + halo.hi) * cols, 0.0);
  return result;
}

/// Ghost rows must be channels of the array: none above row 0 or below
/// the last row.
void check_halo(Range rows, std::size_t total_rows, RowHalo halo) {
  DASSA_CHECK(halo.lo <= rows.begin && halo.hi <= total_rows - rows.end,
              "ghost rows reach outside the array");
}

/// First owned element of `result`.
double* owned_data(ParallelReadResult& result) {
  return result.data.data() + result.halo.lo * result.shape.cols;
}

Range rank_rows(const mpi::Comm& comm, std::size_t total_rows, int rank) {
  return even_chunk(total_rows, static_cast<std::size_t>(comm.size()),
                    static_cast<std::size_t>(rank));
}

}  // namespace

ParallelReadResult read_vca_collective_per_file(mpi::Comm& comm,
                                                const Vca& vca,
                                                const IoCostParams& io,
                                                RowHalo halo) {
  DASSA_TRACE_SPAN("par_read", "par_read.collective_per_file");
  const int p = comm.size();
  const int rank = comm.rank();
  const Shape2D total = vca.shape();
  const Range rows = rank_rows(comm, total.rows, rank);
  check_halo(rows, total.rows, halo);
  ParallelReadResult result = make_result(rows, total.cols, halo);
  double* const mine = owned_data(result);

  const auto& members = vca.members();
  for (std::size_t m = 0; m < members.size(); ++m) {
    // Aggregator for this file reads it whole (one contiguous I/O
    // call), then broadcasts the full file to all ranks.
    const int aggregator = static_cast<int>(m % static_cast<std::size_t>(p));
    std::vector<double> file_data;
    if (rank == aggregator) {
      DASSA_TRACE_SPAN("par_read", "par_read.file_read");
      Dash5File file(members[m].path);
      check_member_shape(file, members[m]);
      file_data = file.read_all();
      comm.charge_modeled_seconds(io.call_cost(
          file_data.size() * sizeof(double), comm.size()));
    }
    {
      DASSA_TRACE_SPAN("par_read", "par_read.bcast");
      comm.bcast(file_data, aggregator);
    }

    // Every rank keeps only its own channel block of the file.
    const std::size_t cols = members[m].shape.cols;
    place_block(file_data.data() + rows.begin * cols, rows.size(), cols,
                mine, total.cols, vca.member_col_start(m));
  }
  return result;
}

ParallelReadResult read_vca_comm_avoiding(mpi::Comm& comm, const Vca& vca,
                                          const IoCostParams& io,
                                          RowHalo halo) {
  DASSA_TRACE_SPAN("par_read", "par_read.comm_avoiding");
  const int p = comm.size();
  const int rank = comm.rank();
  const Shape2D total = vca.shape();
  const auto& members = vca.members();
  const std::size_t n = members.size();
  const Range rows = rank_rows(comm, total.rows, rank);
  check_halo(rows, total.rows, halo);
  ParallelReadResult result = make_result(rows, total.cols, halo);
  double* const mine = owned_data(result);

  // Phase 1: scan my round-robin share of files, one whole-file read
  // each. The scan decodes every row straight to its owner: my channel
  // block into the result, each other rank's block into its payload,
  // which is sized up front and holds the blocks in file order.
  std::size_t my_cols = 0;
  for (std::size_t m = static_cast<std::size_t>(rank); m < n;
       m += static_cast<std::size_t>(p)) {
    my_cols += members[m].shape.cols;
  }
  std::vector<std::vector<double>> per_dest(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    if (q != rank) {
      per_dest[static_cast<std::size_t>(q)].resize(
          rank_rows(comm, total.rows, q).size() * my_cols);
    }
  }
  std::vector<RowBand> bands(static_cast<std::size_t>(p));
  std::size_t cols_before = 0;
  for (std::size_t m = static_cast<std::size_t>(rank); m < n;
       m += static_cast<std::size_t>(p)) {
    DASSA_TRACE_SPAN("par_read", "par_read.local_read");
    const std::size_t cols = members[m].shape.cols;
    for (int q = 0; q < p; ++q) {
      RowBand& band = bands[static_cast<std::size_t>(q)];
      band = {rank_rows(comm, total.rows, q), nullptr, cols};
      if (band.rows.size() == 0) continue;
      if (q == rank) {
        band.dst = mine + vca.member_col_start(m);
        band.stride = total.cols;
      } else {
        band.dst = per_dest[static_cast<std::size_t>(q)].data() +
                   band.rows.size() * cols_before;
      }
    }
    Dash5File file(members[m].path);
    check_member_shape(file, members[m]);
    file.scan_into(bands);
    comm.charge_modeled_seconds(
        io.call_cost(file.shape().size() * sizeof(double), comm.size()));
    cols_before += cols;
  }

  // Phase 2: one all-to-all routes every remote block to its owner.
  std::vector<std::vector<double>> received;
  {
    DASSA_TRACE_SPAN("par_read", "par_read.exchange");
    received = comm.alltoallv(std::move(per_dest));
  }

  // Phase 3: assemble. The round-robin assignment is deterministic, so
  // rank r's payload is the concatenation of my channel block of files
  // r, r+p, r+2p, ... in that order.
  DASSA_TRACE_SPAN("par_read", "par_read.assemble");
  for (int src = 0; src < p; ++src) {
    if (src == rank) continue;
    const std::vector<double>& payload =
        received[static_cast<std::size_t>(src)];
    std::size_t off = 0;
    for (std::size_t m = static_cast<std::size_t>(src); m < n;
         m += static_cast<std::size_t>(p)) {
      const std::size_t cols = members[m].shape.cols;
      DASSA_CHECK(payload.size() - off >= rows.size() * cols,
                  "communication-avoiding payload size mismatch");
      place_block(payload.data() + off, rows.size(), cols, mine, total.cols,
                  vca.member_col_start(m));
      off += rows.size() * cols;
    }
    DASSA_CHECK(off == payload.size(),
                "communication-avoiding payload size mismatch");
  }
  return result;
}

ParallelReadResult read_vca_direct_per_rank(mpi::Comm& comm, const Vca& vca,
                                            const IoCostParams& io,
                                            RowHalo halo) {
  DASSA_TRACE_SPAN("par_read", "par_read.direct_per_rank");
  const int p = comm.size();
  const Shape2D total = vca.shape();
  const Range rows = rank_rows(comm, total.rows, comm.rank());
  check_halo(rows, total.rows, halo);
  ParallelReadResult result = make_result(rows, total.cols, halo);
  double* const mine = owned_data(result);

  const auto& members = vca.members();
  for (std::size_t m = 0; m < members.size(); ++m) {
    Dash5File file(members[m].path);
    check_member_shape(file, members[m]);
    const Slab2D slab{rows.begin, 0, rows.size(), members[m].shape.cols};
    if (!slab.empty()) {
      file.read_slab_into(slab, mine + vca.member_col_start(m), total.cols);
    }
    // Every rank strides into this same member file concurrently.
    comm.charge_modeled_seconds(
        io.shared_call_cost(slab.size() * sizeof(double), p));
  }
  return result;
}

ParallelReadResult read_rca_direct(mpi::Comm& comm,
                                   const std::string& rca_path,
                                   const IoCostParams& io, RowHalo halo) {
  DASSA_TRACE_SPAN("par_read", "par_read.rca_direct");
  Dash5File file(rca_path);
  const Shape2D total = file.shape();
  const Range rows = rank_rows(comm, total.rows, comm.rank());
  check_halo(rows, total.rows, halo);
  ParallelReadResult result = make_result(rows, total.cols, halo);
  const Slab2D slab{rows.begin, 0, rows.size(), total.cols};
  file.read_slab_into(slab, owned_data(result), total.cols);
  // All p ranks stride into the same merged file concurrently.
  comm.charge_modeled_seconds(
      io.shared_call_cost(slab.size() * sizeof(double), comm.size()));
  return result;
}

}  // namespace dassa::io
