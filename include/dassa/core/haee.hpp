// HAEE: the Hybrid ArrayUDF Execution Engine (paper Section V-B).
//
// The engine runs a UDF over a VCA-backed DAS array on a simulated
// cluster of `nodes` computing nodes with `cores_per_node` cores each,
// in either of the paper's two configurations:
//
//  * kMpiPerCore -- the original ArrayUDF model: one MPI rank per CPU
//    core (nodes x cores ranks), no threading. Every rank issues its
//    own I/O and holds its own copy of any shared state (the
//    master-channel duplication of Section V-B).
//
//  * kHybrid -- HAEE: one MPI rank per node, `cores_per_node` threads
//    inside each rank via ApplyMT. One I/O stream per node (16x fewer
//    I/O calls in the paper's Cori runs) and shared per-node state.
//
// Per-rank flow: communication-avoiding parallel read of the rank's
// channel block -> point-to-point halo (ghost-zone) exchange with the
// neighbouring ranks -> Apply/ApplyMT -> optional gather of the output
// to rank 0. Stage wall times are taken as the max over ranks.
#pragma once

#include <optional>

#include "dassa/common/timer.hpp"
#include "dassa/core/apply.hpp"
#include "dassa/io/par_read.hpp"
#include "dassa/io/par_write.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/mpi/runtime.hpp"
#include "dassa/mpi/telemetry.hpp"

namespace dassa::core {

enum class EngineMode {
  kMpiPerCore,  ///< original ArrayUDF: 1 rank per core, no threads
  kHybrid,      ///< HAEE: 1 rank per node, cores_per_node threads
};

enum class ReadMethod {
  kCollectivePerFile,      ///< paper Fig. 5a
  kCommunicationAvoiding,  ///< paper Fig. 5b (DASSA's default)
  kDirectPerRank,          ///< original ArrayUDF: every rank reads its
                           ///< block from every file (O(p*n) requests)
};

/// How a rank obtains its ghost channels (DESIGN.md ablation #4).
enum class HaloMode {
  kExchange,     ///< point-to-point exchange with neighbour ranks
                 ///< (2 messages per rank; ArrayUDF's design)
  kOverlapRead,  ///< each rank re-reads its halo rows from the VCA
                 ///< (no communication, O(files) extra small reads)
};

struct EngineConfig {
  int nodes = 1;
  int cores_per_node = 1;
  EngineMode mode = EngineMode::kHybrid;
  ReadMethod read_method = ReadMethod::kCommunicationAvoiding;
  std::size_t halo_channels = 0;  ///< ghost-zone width for cell UDFs
  HaloMode halo_mode = HaloMode::kExchange;
  bool gather_output = true;      ///< gather result rows onto rank 0
  /// When non-empty, the engine also writes the output as one DASH5
  /// file via the distributed parallel writer (every rank patches its
  /// own channel block -- the paper's "single and big array" write).
  std::string output_path;
  io::IoCostParams io_cost{};
  mpi::CostParams net_cost{};

  [[nodiscard]] int world_size() const {
    return mode == EngineMode::kHybrid ? nodes : nodes * cores_per_node;
  }
  [[nodiscard]] int threads_per_rank() const {
    return mode == EngineMode::kHybrid ? cores_per_node : 1;
  }
};

/// A per-rank context handed to UDF factories, so pipelines can stage
/// rank-wide state (e.g. the FFT of the master channel) exactly once
/// per rank -- which is once per *node* under kHybrid and once per
/// *core* under kMpiPerCore, reproducing the duplication the paper
/// measures.
struct RankContext {
  mpi::Comm& comm;
  const LocalBlock& block;
  int threads = 1;
};

/// Factory invoked once per rank after the read+halo phase; returns the
/// UDF that ApplyMT then runs (must be thread-safe).
using ScalarUdfFactory = std::function<ScalarUdf(const RankContext&)>;
using CellRowUdfFactory = std::function<CellRowUdf(const RankContext&)>;
using RowUdfFactory = std::function<RowUdf(const RankContext&)>;

/// What a distributed run produced.
struct EngineReport {
  Array2D output;          ///< gathered on rank 0 (empty if !gather_output)
  StageTimes stages;       ///< per stage: max wall seconds over ranks
  mpi::CommStats comm;     ///< aggregate message counts, max modeled time
  int world_size = 0;
  int threads_per_rank = 0;
  /// Modeled per-node peak bytes: local block + output + per-rank
  /// duplicated state reported by the UDF factory via `extra_bytes`.
  std::uint64_t modeled_peak_bytes_per_node = 0;
  /// Cross-rank telemetry reduced onto rank 0 at the end of the run:
  /// per-rank read bytes / rows / comm traffic with cluster-wide
  /// aggregates and imbalance ratios (das_analyze --telemetry).
  mpi::ClusterTelemetry telemetry;
};

/// Run a cell-granularity UDF (e.g. local similarity) distributed.
[[nodiscard]] EngineReport run_cells(const EngineConfig& config,
                                     const io::Vca& vca,
                                     const ScalarUdfFactory& factory);

/// Run a cell-granularity UDF given in row form: same output and cell
/// accounting as the ScalarUdf overload, one UDF call per owned row.
[[nodiscard]] EngineReport run_cells(const EngineConfig& config,
                                     const io::Vca& vca,
                                     const CellRowUdfFactory& factory);

/// Run a channel-granularity UDF (e.g. interferometry) distributed.
/// `extra_bytes_per_rank`, if provided, is the size of rank-duplicated
/// state (master channel etc.) used for the memory model.
[[nodiscard]] EngineReport run_rows(const EngineConfig& config,
                                    const io::Vca& vca,
                                    const RowUdfFactory& factory,
                                    std::size_t extra_bytes_per_rank = 0);

/// Ghost rows rank `rank` of `p` reserves around its channel block of
/// a `global` array for a `halo`-channel ghost zone under `mode`: with
/// kExchange every side that has a neighbour rank gets `halo` rows
/// (throws InvalidArgument when `halo` is wider than the smallest
/// channel partition); with kOverlapRead each side gets up to `halo`
/// rows, clipped at the array's edges.
[[nodiscard]] io::RowHalo ghost_rows(HaloMode mode, Shape2D global, int p,
                                     int rank, std::size_t halo);

/// Adopt a read result (with kExchange ghost rows reserved) as the
/// rank's local block, and fill its ghost rows by exchanging boundary
/// rows with the neighbouring ranks (exposed for tests).
[[nodiscard]] LocalBlock build_local_block(mpi::Comm& comm,
                                           io::ParallelReadResult read,
                                           Shape2D global);

/// Adopt a read result (with kOverlapRead ghost rows reserved) as the
/// rank's local block, and fill its ghost rows by re-reading them from
/// the VCA instead of communicating. The extra reads are charged to the
/// rank's modeled time under `io`.
[[nodiscard]] LocalBlock build_local_block_overlap(
    mpi::Comm& comm, const io::Vca& vca, io::ParallelReadResult read,
    Shape2D global, const io::IoCostParams& io = {});

}  // namespace dassa::core
