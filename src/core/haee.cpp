#include "dassa/core/haee.hpp"

#include <memory>

#include "dassa/common/counters.hpp"
#include "dassa/common/trace.hpp"

namespace dassa::core {

namespace {

constexpr int kHaloUpTag = 9001;    // my top rows -> previous rank
constexpr int kHaloDownTag = 9002;  // my bottom rows -> next rank

io::ParallelReadResult read_block(mpi::Comm& comm, const io::Vca& vca,
                                  const EngineConfig& config,
                                  io::RowHalo halo) {
  switch (config.read_method) {
    case ReadMethod::kCollectivePerFile:
      return io::read_vca_collective_per_file(comm, vca, config.io_cost,
                                              halo);
    case ReadMethod::kCommunicationAvoiding:
      return io::read_vca_comm_avoiding(comm, vca, config.io_cost, halo);
    case ReadMethod::kDirectPerRank:
      return io::read_vca_direct_per_rank(comm, vca, config.io_cost, halo);
  }
  throw InvalidArgument("unknown read method");
}

/// Entry guard of run_cells / run_rows: at least one rank, each running
/// Apply on at least one thread, and a UDF factory to run.
void check_engine_entry(const EngineConfig& config, bool has_factory) {
  DASSA_CHECK(config.world_size() >= 1, "the engine needs at least one rank");
  DASSA_CHECK(config.threads_per_rank() >= 1,
              "each engine rank needs at least one Apply thread");
  DASSA_CHECK(has_factory, "the engine needs a UDF factory");
}

/// The read result as the rank's block: same buffer, owned rows at
/// local row halo.lo.
LocalBlock adopt_read(io::ParallelReadResult&& read, Shape2D global) {
  LocalBlock block;
  block.block_shape = {read.halo.lo + read.rows.size() + read.halo.hi,
                       read.shape.cols};
  DASSA_CHECK(read.data.size() == block.block_shape.size(),
              "read result does not hold its ghost rows");
  DASSA_CHECK(read.halo.lo <= read.rows.begin,
              "ghost rows above the first channel");
  block.global_row0 = read.rows.begin - read.halo.lo;
  block.owned_local =
      Range{read.halo.lo, read.halo.lo + read.rows.size()};
  block.global_shape = global;
  block.data = std::move(read.data);
  return block;
}

/// Gather per-rank output rows onto rank 0 in rank order.
Array2D gather_output(mpi::Comm& comm, const Array2D& mine,
                      std::size_t global_rows) {
  const auto parts = comm.gatherv(std::span<const double>(mine.data), 0);
  if (comm.rank() != 0) return {};
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  DASSA_CHECK(global_rows > 0 && total % global_rows == 0,
              "gathered output does not tile the global row count");
  Array2D out(Shape2D{global_rows, total / global_rows});
  std::size_t off = 0;
  for (const auto& p : parts) {
    std::copy(p.begin(), p.end(),
              out.data.begin() + static_cast<std::ptrdiff_t>(off));
    off += p.size();
  }
  return out;
}

/// Shared driver: read + halo, then hand the block to `compute`, then
/// gather. `compute` returns the rank-local output rows.
EngineReport run_engine(
    const EngineConfig& config, const io::Vca& vca,
    const std::function<Array2D(RankContext&)>& compute,
    std::size_t extra_bytes_per_rank) {
  const int world = config.world_size();
  const Shape2D global = vca.shape();
  global_counters().add(counters::kHaeeRuns);
  global_counters().add(counters::kHaeeRanksLaunched,
                        static_cast<std::uint64_t>(world));

  std::vector<StageTimes> rank_stages(static_cast<std::size_t>(world));
  std::vector<std::uint64_t> rank_peak(static_cast<std::size_t>(world), 0);
  Array2D gathered;
  mpi::ClusterTelemetry cluster;

  const mpi::RunReport run_report = mpi::Runtime::run(
      world, config.net_cost, [&](mpi::Comm& comm) {
        StageTimes& stages =
            rank_stages[static_cast<std::size_t>(comm.rank())];

        LocalBlock block;
        std::uint64_t read_bytes = 0;
        {
          StageScope scope(stages, "read");
          DASSA_TRACE_SPAN("haee", "haee.read");
          const io::RowHalo halo =
              ghost_rows(config.halo_mode, global, comm.size(), comm.rank(),
                         config.halo_channels);
          io::ParallelReadResult read = read_block(comm, vca, config, halo);
          read_bytes = read.shape.size() * sizeof(double);
          block = config.halo_mode == HaloMode::kExchange
                      ? build_local_block(comm, std::move(read), global)
                      : build_local_block_overlap(comm, vca, std::move(read),
                                                  global, config.io_cost);
        }

        Array2D mine;
        {
          StageScope scope(stages, "compute");
          DASSA_TRACE_SPAN("haee", "haee.apply");
          RankContext ctx{comm, block, config.threads_per_rank()};
          mine = compute(ctx);
        }

        rank_peak[static_cast<std::size_t>(comm.rank())] =
            (block.data.size() + mine.data.size()) * sizeof(double) +
            extra_bytes_per_rank;

        if (!config.output_path.empty()) {
          StageScope scope(stages, "write");
          DASSA_TRACE_SPAN("haee", "haee.write");
          // Output column count can differ from the input's (row UDFs
          // choose their own length); agree on the maximum, which all
          // non-empty ranks share.
          const auto out_cols = static_cast<std::size_t>(
              comm.allreduce<std::uint64_t>(
                  mine.shape.cols,
                  [](std::uint64_t a, std::uint64_t b) {
                    return std::max(a, b);
                  }));
          io::Dash5Header out_header;
          out_header.shape = {global.rows, out_cols};
          out_header.global = vca.global_meta();
          const Range owned{block.global_row0 + block.owned_local.begin,
                            block.global_row0 + block.owned_local.end};
          io::write_dash5_distributed(comm, config.output_path, out_header,
                                      owned, mine.data, config.io_cost);
        }

        if (config.gather_output) {
          StageScope scope(stages, "write");
          DASSA_TRACE_SPAN("haee", "haee.gather");
          Array2D out = gather_output(comm, mine, global.rows);
          if (comm.rank() == 0) gathered = std::move(out);
        }

        // Per-rank telemetry cannot come from the process-global
        // counters (rank threads share them); each rank assembles its
        // own view and a real gatherv reduces it onto rank 0.
        mpi::RankTelemetry mine_t;
        mine_t.counters["haee.read_bytes"] = read_bytes;
        mine_t.counters["haee.rows_owned"] = static_cast<std::uint64_t>(
            block.owned_local.end - block.owned_local.begin);
        mine_t.counters["haee.output_values"] =
            static_cast<std::uint64_t>(mine.data.size());
        const mpi::CommStats& cs = comm.stats();
        mine_t.counters["mpi.bytes_sent"] = cs.bytes_sent;
        mine_t.counters["mpi.bytes_received"] = cs.bytes_received;
        mine_t.counters["mpi.p2p_messages"] = cs.p2p_sends + cs.p2p_recvs;
        LatencyHistogram stage_hist;
        for (const auto& [name, secs] : stages.stages()) {
          const auto ns = static_cast<std::uint64_t>(secs * 1e9);
          mine_t.counters["haee.stage." + name + "_ns"] = ns;
          stage_hist.record_ns(ns);
        }
        mine_t.hists["haee.stage_ns"] = stage_hist.snapshot();
        mpi::ClusterTelemetry reduced =
            mpi::reduce_telemetry(comm, mine_t, 0);
        if (comm.rank() == 0) cluster = std::move(reduced);
      });

  EngineReport report;
  report.output = std::move(gathered);
  report.world_size = world;
  report.threads_per_rank = config.threads_per_rank();
  report.comm = run_report.aggregate();
  // Stage walls: max over ranks (the paper's figures report the slowest
  // rank's stage times).
  for (const auto& stages : rank_stages) {
    for (const auto& [name, secs] : stages.stages()) {
      if (secs > report.stages.get(name)) {
        StageTimes tmp;
        tmp.add(name, secs - report.stages.get(name));
        report.stages.merge(tmp);
      }
    }
  }
  // Memory model: a node hosts 1 rank under kHybrid and cores_per_node
  // ranks under kMpiPerCore.
  std::uint64_t max_rank_peak = 0;
  for (std::uint64_t b : rank_peak) max_rank_peak = std::max(max_rank_peak, b);
  const std::uint64_t ranks_per_node =
      config.mode == EngineMode::kHybrid
          ? 1
          : static_cast<std::uint64_t>(config.cores_per_node);
  report.modeled_peak_bytes_per_node = max_rank_peak * ranks_per_node;
  report.telemetry = std::move(cluster);
  return report;
}

}  // namespace

io::RowHalo ghost_rows(HaloMode mode, Shape2D global, int p, int rank,
                       std::size_t halo) {
  DASSA_CHECK(p > 0 && rank >= 0 && rank < p, "rank outside the world");
  if (mode == HaloMode::kOverlapRead) {
    const Range rows = even_chunk(global.rows, static_cast<std::size_t>(p),
                                  static_cast<std::size_t>(rank));
    return {std::min(halo, rows.begin),
            std::min(halo, global.rows - rows.end)};
  }
  if (halo == 0 || p == 1) return {};
  DASSA_CHECK(halo <= global.rows / static_cast<std::size_t>(p),
              "ghost zone wider than the smallest channel partition");
  return {rank > 0 ? halo : 0, rank < p - 1 ? halo : 0};
}

LocalBlock build_local_block(mpi::Comm& comm, io::ParallelReadResult read,
                             Shape2D global) {
  DASSA_TRACE_SPAN("haee", "haee.ghost_exchange");
  const int p = comm.size();
  const int rank = comm.rank();
  const io::RowHalo halo = read.halo;
  LocalBlock block = adopt_read(std::move(read), global);
  const std::size_t cols = block.block_shape.cols;
  const Range owned = block.owned_local;
  DASSA_CHECK((halo.lo == 0 || rank > 0) && (halo.hi == 0 || rank < p - 1),
              "ghost rows on a side with no neighbour rank");
  DASSA_CHECK(halo.lo <= owned.size() && halo.hi <= owned.size(),
              "ghost zone wider than the rank's own rows");
  if (halo.lo == 0 && halo.hi == 0) return block;
  global_counters().add(counters::kHaeeHaloExchanges,
                        (halo.lo > 0 ? 1u : 0u) + (halo.hi > 0 ? 1u : 0u));

  // Buffered sends of my boundary rows first, then receives straight
  // into my ghost rows: a deadlock-free point-to-point exchange with
  // both neighbours. The zone is symmetric, so the rows I owe a
  // neighbour are as many as the ghost rows I take from it.
  double* const data = block.data.data();
  if (halo.lo > 0) {
    comm.send(std::span<const double>(data + owned.begin * cols,
                                      halo.lo * cols),
              rank - 1, kHaloUpTag);
  }
  if (halo.hi > 0) {
    comm.send(std::span<const double>(data + (owned.end - halo.hi) * cols,
                                      halo.hi * cols),
              rank + 1, kHaloDownTag);
  }
  const auto receive = [&](int src, int tag, std::size_t row0,
                           std::size_t n) {
    const std::vector<double> rows = comm.recv<double>(src, tag);
    DASSA_CHECK(rows.size() == n * cols, "halo size mismatch");
    std::copy(rows.begin(), rows.end(), data + row0 * cols);
  };
  if (halo.lo > 0) receive(rank - 1, kHaloDownTag, 0, halo.lo);
  if (halo.hi > 0) receive(rank + 1, kHaloUpTag, owned.end, halo.hi);
  return block;
}

LocalBlock build_local_block_overlap(mpi::Comm& comm, const io::Vca& vca,
                                     io::ParallelReadResult read,
                                     Shape2D global,
                                     const io::IoCostParams& io) {
  DASSA_TRACE_SPAN("haee", "haee.ghost_overlap_read");
  LocalBlock block = adopt_read(std::move(read), global);
  const std::size_t cols = block.block_shape.cols;
  const Range owned = block.owned_local;

  // Read ghost rows [row0, row0 + n) of the block from the VCA in place.
  // Model charge: one storage request per member piece, all ranks
  // hitting the files concurrently.
  const auto read_ghosts = [&](std::size_t row0, std::size_t n) {
    const Slab2D slab{block.global_row0 + row0, 0, n, cols};
    global_counters().add(counters::kHaeeHaloOverlapReads);
    for (const io::VcaPiece& piece : vca.resolve(slab)) {
      comm.charge_modeled_seconds(io.shared_call_cost(
          piece.slab.size() * sizeof(double), comm.size()));
    }
    vca.read_slab_into(slab, block.data.data() + row0 * cols, cols);
  };
  if (owned.begin > 0) read_ghosts(0, owned.begin);
  if (owned.end < block.block_shape.rows) {
    read_ghosts(owned.end, block.block_shape.rows - owned.end);
  }
  return block;
}

EngineReport run_cells(const EngineConfig& config, const io::Vca& vca,
                       const ScalarUdfFactory& factory) {
  check_engine_entry(config, factory != nullptr);
  return run_engine(
      config, vca,
      [&](RankContext& ctx) -> Array2D {
        return apply_cells(ctx.block, factory(ctx), ctx.threads);
      },
      0);
}

EngineReport run_cells(const EngineConfig& config, const io::Vca& vca,
                       const CellRowUdfFactory& factory) {
  check_engine_entry(config, factory != nullptr);
  return run_engine(
      config, vca,
      [&](RankContext& ctx) -> Array2D {
        return apply_cells(ctx.block, factory(ctx), ctx.threads);
      },
      0);
}

EngineReport run_rows(const EngineConfig& config, const io::Vca& vca,
                      const RowUdfFactory& factory,
                      std::size_t extra_bytes_per_rank) {
  check_engine_entry(config, factory != nullptr);
  return run_engine(
      config, vca,
      [&](RankContext& ctx) -> Array2D {
        return apply_rows(ctx.block, factory(ctx), ctx.threads);
      },
      extra_bytes_per_rank);
}

}  // namespace dassa::core
