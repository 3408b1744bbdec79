// Streaming ingest: sliding-window planning with overlap carry
// (docs/INGEST.md).
//
// The daemon analyses the growing acquisition in file-aligned windows:
// a window spans `window_files` consecutive member files and advances
// by `window_files - overlap_files` files. Each window is handed to the
// offline engine as a sub-VCA, but only a sub-range of its columns --
// the *emit region* -- is kept, chosen so the emitted cells are
// byte-identical to an offline run over the whole stream:
//
//   * a cell's UDF value depends on data within +-margin_cols of it
//     (local similarity: window_half + lag_half + kSimilarityAnchor - 1,
//     see udf_margin_cols), and the UDF returns exactly 0 for cells
//     whose span crosses the array edge;
//   * a window therefore reproduces the offline value for every cell at
//     least margin_cols from both window edges -- and for cells nearer
//     a window edge that coincides with the *stream* edge, where the
//     offline run clips identically;
//   * consecutive emit regions tile the stream exactly: window k emits
//     [carry, end_k - margin) where carry is window k-1's emit end, and
//     the final window (at drain) emits [carry, total).
//
// Validity requires the overlap to cover two margins (the previous
// window's unemittable tail plus this window's unemittable head):
// overlap_cols >= 2 * margin_cols. The planner throws InvalidArgument
// the moment a window violates that, naming the fix (more overlap or
// longer files), instead of silently emitting wrong edges.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace dassa::ingest {

/// One planned analysis window over the member-file sequence.
/// Columns are global (whole-stream) coordinates; [emit_lo, emit_hi)
/// is the half-open region of output columns this window contributes.
struct WindowSpec {
  std::size_t index = 0;       ///< running window number, from 0
  std::size_t first_file = 0;  ///< first member file in the window
  std::size_t file_count = 0;
  std::size_t start_col = 0;   ///< global column of first_file
  std::size_t end_col = 0;     ///< exclusive
  std::size_t emit_lo = 0;
  std::size_t emit_hi = 0;
  bool final = false;          ///< emitted by finish(): runs to stream end

  friend bool operator==(const WindowSpec&, const WindowSpec&) = default;
};

/// Incremental window planner. Feed it each admitted file's column
/// count with add_file(), drain ready windows with next_ready(), and
/// close the stream with finish(), which plans the remainder-covering
/// final window. Single-threaded by design: the ingest driver calls it
/// from the one consumer thread.
class WindowPlanner {
 public:
  /// `margin_cols` is the UDF's one-sided time dependency span; emit
  /// regions stay this far from interior window edges.
  WindowPlanner(std::size_t window_files, std::size_t overlap_files,
                std::size_t margin_cols);

  /// Register the next member file (cols > 0).
  void add_file(std::size_t cols);

  /// The next complete window, if the files for it have all arrived.
  /// Call repeatedly until nullopt after each add_file. Throws
  /// InvalidArgument if the window/overlap geometry cannot honour the
  /// margin (overlap_cols < 2 * margin_cols).
  [[nodiscard]] std::optional<WindowSpec> next_ready();

  /// Close the stream: plan one final window covering every not-yet-
  /// emitted column (with margin_cols of left context), or nullopt if
  /// nothing remains. Further add_file/next_ready calls are invalid.
  [[nodiscard]] std::optional<WindowSpec> finish();

  [[nodiscard]] std::size_t files_added() const {
    return col_starts_.size() - 1;
  }
  /// Total columns registered so far.
  [[nodiscard]] std::size_t total_cols() const { return col_starts_.back(); }
  /// Columns emitted by the windows returned so far (the carry).
  [[nodiscard]] std::size_t emitted_cols() const { return emit_lo_; }
  [[nodiscard]] std::size_t margin_cols() const { return margin_; }

 private:
  std::size_t window_files_;
  std::size_t overlap_files_;
  std::size_t step_;
  std::size_t margin_;
  std::vector<std::size_t> col_starts_;  // cumulative; [0] == 0
  std::size_t next_window_ = 0;          // next *regular* window number
  std::size_t windows_planned_ = 0;
  std::size_t emit_lo_ = 0;
  bool finished_ = false;
};

}  // namespace dassa::ingest
