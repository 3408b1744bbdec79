// DASS: Virtually Concatenated Array (VCA) and Real Concatenated Array
// (RCA), paper Section IV.
//
// A VCA merges DAS files recorded at contiguous times into one logical
// [channel, time] array *without copying data*: it stores only member
// metadata (path + shape), so construction touches headers only and is
// orders of magnitude cheaper than physically concatenating (paper
// Fig. 6 reports ~70,000x). The price is that reads must be resolved
// onto the member files -- which is what the communication-avoiding
// parallel reader (par_read.hpp) optimises.
//
// An RCA is the physical merge: every member's data is read and
// rewritten into one DASH5 file (paper Table I: 100% extra space, high
// construction overhead, but plain parallel I/O afterwards).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dassa/common/shape.hpp"
#include "dassa/io/array_source.hpp"
#include "dassa/io/dash5.hpp"

namespace dassa::io {

/// One member file of a VCA.
struct VcaMember {
  std::string path;
  Shape2D shape;
  friend bool operator==(const VcaMember&, const VcaMember&) = default;
};

/// Every VCA reader routes rows and columns by the shape the VCA
/// recorded, so each member open checks it: a member rewritten to
/// another shape since the VCA was built throws FormatError naming its
/// path instead of being misread.
void check_member_shape(const Dash5File& file, const VcaMember& member);

/// A piece of a VCA selection mapped onto one member file.
struct VcaPiece {
  std::size_t member = 0;  ///< index into members()
  Slab2D slab;             ///< selection within the member file
  std::size_t col_dst = 0; ///< destination column in the VCA-local result
};

class Vca final : public ArraySource {
 public:
  /// An empty VCA placeholder; assign a built/loaded VCA before use.
  Vca() = default;

  /// Build from member files in concatenation (time) order. Reads only
  /// each file's header; all members must have the same channel count.
  /// The VCA's global metadata is taken from the first member.
  [[nodiscard]] static Vca build(const std::vector<std::string>& files);

  /// Persist to / load from a .vca logical file (metadata only).
  void save(const std::string& path) const;
  [[nodiscard]] static Vca load(const std::string& path);

  /// Atomic index rewrite: save to `path + ".tmp"` and rename over
  /// `path`, so a concurrent load(path) sees either the previous or the
  /// new index, never a torn write. This is how the streaming ingest
  /// daemon republishes its live VCA after every admitted file.
  void save_atomic(const std::string& path) const;

  /// Append one member file to the back of the concatenation (reads
  /// its header only). Already-open member handles are preserved, so a
  /// long-lived live VCA keeps its decoded-chunk cache identity across
  /// appends. On an empty VCA this behaves like build({path}).
  /// Throws InvalidArgument if the channel count differs from the
  /// existing members'.
  void append_member(const std::string& path);

  [[nodiscard]] Shape2D shape() const override { return shape_; }
  [[nodiscard]] const std::vector<VcaMember>& members() const {
    return members_;
  }
  [[nodiscard]] const KvList& global_meta() const { return global_; }

  /// First column of member i in the concatenated coordinate system.
  [[nodiscard]] std::size_t member_col_start(std::size_t i) const {
    return col_starts_[i];
  }

  /// Map a VCA-coordinate selection to per-member pieces (binary search
  /// over member extents).
  [[nodiscard]] std::vector<VcaPiece> resolve(const Slab2D& slab) const;

  /// Sequential read: resolve the selection and read each piece from
  /// its member file straight into its column band of `dst`.
  /// Member handles are opened lazily on first use and kept for the
  /// VCA's lifetime, so repeated reads skip per-call header parsing
  /// and keep their decoded-chunk cache identity (v3 members).
  void read_slab_into(const Slab2D& slab, double* dst,
                      std::size_t dst_stride) const override;

 private:
  void finalize();  // compute shape_ and col_starts_ from members_
  [[nodiscard]] Dash5File& member_file(std::size_t i) const;

  // Lazily opened member handles, shared across copies of this VCA
  // (handles are read-only; Dash5File serialises its own I/O).
  struct MemberFiles;

  std::vector<VcaMember> members_;
  std::vector<std::size_t> col_starts_;  // per member, plus total at end
  Shape2D shape_;
  KvList global_;
  mutable std::shared_ptr<MemberFiles> handles_;
};

/// Statistics from building an RCA.
struct RcaBuildStats {
  double seconds = 0.0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Physically concatenate `files` (in time order) into a single DASH5
/// file at `out_path`. Global metadata and channel objects are copied
/// from the first member. Stages the whole merged array in memory.
RcaBuildStats rca_create(const std::vector<std::string>& files,
                         const std::string& out_path);

/// Memory-bounded RCA creation: processes `rows_per_block` channels at
/// a time (reading the matching slab of every member, appending the
/// assembled rows through a streaming writer), so peak memory is
/// O(rows_per_block x total_time) instead of the full merged array.
RcaBuildStats rca_create_streaming(const std::vector<std::string>& files,
                                   const std::string& out_path,
                                   std::size_t rows_per_block = 64);

}  // namespace dassa::io
