// DASS: parallel read strategies for concatenated DAS data
// (paper Section IV-B and Fig. 5).
//
// The access pattern both strategies serve is the typical one for DAS
// analysis: p ranks each need their own channel block of the *entire*
// time range, which is scattered over the n member files of a VCA.
//
//  * collective-per-file (Fig. 5a): ranks process files one at a time;
//    for each file one aggregator rank reads it whole and broadcasts it
//    to everyone ("merge-read-broadcast"). O(n) reads, O(n) broadcasts
//    -- the broadcast per file is the scaling bottleneck the paper
//    identifies.
//
//  * communication-avoiding (Fig. 5b): files are assigned round-robin;
//    each rank reads its own files whole (one contiguous I/O call per
//    file, decoded straight into the rank's block and one payload per
//    other rank by Dash5File::scan_into), then a single all-to-all
//    exchange routes every channel block to its owner. O(n) reads, and each rank participates in only
//    O(p) pairwise exchanges carrying its O(n/p) file shares.
//
//  * RCA direct: the reference case of reading a physically merged
//    file, one contiguous read per rank.
//
// Each function runs inside a MiniMPI rank. Storage latency/bandwidth
// is additionally charged to the rank's modeled time under IoCostParams
// so cluster-scale behaviour is visible on the single-node substrate.
#pragma once

#include <string>
#include <vector>

#include "dassa/common/shape.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/mpi/comm.hpp"

namespace dassa::io {

/// Storage cost model charged per I/O call: a fixed per-call latency
/// (file open + request round trip on a parallel file system) plus a
/// bandwidth term. Defaults approximate a disk-based Lustre target.
struct IoCostParams {
  double call_latency_seconds = 2.0e-3;
  double bandwidth_bytes_per_second = 1.0e9;

  /// Extra per-call latency charged for each *other* rank concurrently
  /// reading a disjoint offset of the same file. Models the seek/OST
  /// contention disk-based parallel file systems exhibit when many
  /// processes stride into one shared file (the contention the paper
  /// cites via its refs [12], [14]); whole-file reads of distinct
  /// files do not pay it.
  double shared_file_seek_seconds = 0.5e-3;

  /// Total bandwidth of the storage system across all concurrent
  /// readers -- the paper's "fixed number of disk-based storage
  /// targets in its Lustre file system": once enough ranks read at
  /// once, they split this pool, and I/O parallel efficiency decays
  /// (paper Section VI-E). Default approximates a mid-size Lustre
  /// scratch.
  double aggregate_bandwidth_bytes_per_second = 100.0e9;

  /// Per-rank effective bandwidth when `concurrent` ranks read at once.
  [[nodiscard]] double effective_bandwidth(int concurrent) const {
    const double share = aggregate_bandwidth_bytes_per_second /
                         static_cast<double>(std::max(1, concurrent));
    return share < bandwidth_bytes_per_second ? share
                                              : bandwidth_bytes_per_second;
  }

  [[nodiscard]] double call_cost(std::size_t bytes,
                                 int concurrent = 1) const {
    return call_latency_seconds +
           static_cast<double>(bytes) / effective_bandwidth(concurrent);
  }

  [[nodiscard]] double shared_call_cost(std::size_t bytes,
                                        int concurrent_readers) const {
    return call_cost(bytes, concurrent_readers) +
           shared_file_seek_seconds *
               static_cast<double>(concurrent_readers > 0
                                       ? concurrent_readers - 1
                                       : 0);
  }
};

/// Ghost rows a rank's read reserves around its owned channel rows.
struct RowHalo {
  std::size_t lo = 0;  ///< rows above the owned block
  std::size_t hi = 0;  ///< rows below the owned block
};

/// One rank's share of a parallel read: its channel block over the full
/// concatenated time range, sized once with the ghost rows the caller
/// asked for, so the block is the buffer the analysis runs on.
struct ParallelReadResult {
  Range rows;        ///< [begin, end) channel rows owned by this rank
  Shape2D shape;     ///< rows.size() x total time samples
  RowHalo halo;      ///< ghost rows stored around the owned rows
  /// Row-major (halo.lo + rows.size() + halo.hi) x shape.cols block.
  /// The owned rows start at row halo.lo; the read leaves the ghost
  /// rows zero for the caller's halo stage to fill in place.
  std::vector<double> data;
};

/// Fig. 5a: all ranks share each file; one aggregator read + one
/// broadcast per file.
[[nodiscard]] ParallelReadResult read_vca_collective_per_file(
    mpi::Comm& comm, const Vca& vca, const IoCostParams& io = {},
    RowHalo halo = {});

/// Fig. 5b: round-robin independent whole-file reads + one all-to-all.
[[nodiscard]] ParallelReadResult read_vca_comm_avoiding(
    mpi::Comm& comm, const Vca& vca, const IoCostParams& io = {},
    RowHalo halo = {});

/// Reference: read a channel block straight out of a physically merged
/// (RCA) DASH5 file.
[[nodiscard]] ParallelReadResult read_rca_direct(mpi::Comm& comm,
                                                 const std::string& rca_path,
                                                 const IoCostParams& io = {},
                                                 RowHalo halo = {});

/// The original-ArrayUDF access pattern (paper Sections IV-B and V-B):
/// every rank reads its own channel block from every member file
/// directly, with no communication -- O(p * n) I/O requests in total.
/// This is the IOPS pressure HAEE's one-rank-per-node layout reduces.
[[nodiscard]] ParallelReadResult read_vca_direct_per_rank(
    mpi::Comm& comm, const Vca& vca, const IoCostParams& io = {},
    RowHalo halo = {});

}  // namespace dassa::io
