// DASSA MiniMPI: cross-rank telemetry reduction.
//
// MiniMPI ranks are threads sharing one process-global counter
// registry, so "per-rank telemetry" cannot be read back from the
// globals -- each rank assembles its own RankTelemetry (from its comm
// statistics, read sizes, and stage clocks) and the runtime reduces
// them with a real gatherv, exactly as the MPI deployment would. The
// result is the cluster-wide view the health report prints: per-counter
// sum/min/max with the owning ranks and an imbalance ratio ("rank 3
// did 2.4x the read bytes of rank 0"), plus histograms merged
// bucket-wise -- exact, because every histogram shares the same 64
// power-of-two bins.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dassa/common/metrics.hpp"
#include "dassa/mpi/comm.hpp"

namespace dassa::mpi {

/// One rank's contribution: named counters plus histogram snapshots,
/// gathered through the snapshot codec (metrics.hpp).
using RankTelemetry = MetricsSnapshot;

/// Cluster-wide aggregate of one counter.
struct CounterAggregate {
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  int min_rank = 0;
  int max_rank = 0;

  /// max / mean: 1.0 is perfectly balanced. Returns 1.0 when the sum
  /// is zero (nothing to be imbalanced about).
  [[nodiscard]] double imbalance(int world_size) const;
};

/// The reduced view, populated on the root rank only (other ranks get
/// world_size and their own contribution echoed back, nothing more).
struct ClusterTelemetry {
  int world_size = 0;
  std::vector<RankTelemetry> per_rank;  ///< indexed by rank; root only
  std::map<std::string, CounterAggregate> counters;
  std::map<std::string, HistogramSnapshot> hists;  ///< bucket-merged
};

/// Collective: every rank contributes `mine`; the root returns the
/// full cluster view. Counters absent on some ranks count as zero
/// there. Must be called by all ranks of the communicator.
[[nodiscard]] ClusterTelemetry reduce_telemetry(Comm& comm,
                                                const RankTelemetry& mine,
                                                int root = 0);

}  // namespace dassa::mpi
