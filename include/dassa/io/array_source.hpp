// DASS: abstract random-access 2D array sources.
//
// DASSA's analysis engine consumes its input through this interface,
// so a plain DASH5 file (Dash5File), a virtually concatenated array
// (VCA), and a logical array view (LAV) are interchangeable inputs --
// the composability shown in paper Fig. 3.
#pragma once

#include <memory>
#include <vector>

#include "dassa/common/shape.hpp"

namespace dassa::io {

/// A readable dense 2D double array.
///
/// Reading is `const`: a source's observable state (shape, metadata,
/// the data it serves) never changes across reads. Implementations that
/// keep a file cursor treat it as non-observable state (see Dash5File).
class ArraySource {
 public:
  virtual ~ArraySource() = default;

  [[nodiscard]] virtual Shape2D shape() const = 0;

  /// Read a rectangular selection into caller memory: row r of the
  /// selection lands at `dst + r * dst_stride`, so a read can fill a
  /// column band of a wider buffer in place. Requires
  /// `dst_stride >= slab.col_cnt`; nothing outside the selection's
  /// footprint in `dst` is written.
  virtual void read_slab_into(const Slab2D& slab, double* dst,
                              std::size_t dst_stride) const = 0;

  /// Read a rectangular selection (row-major, slab.size() elements).
  [[nodiscard]] std::vector<double> read_slab(const Slab2D& slab) const {
    slab.validate_against(shape());
    std::vector<double> out(slab.size());
    read_slab_into(slab, out.data(), slab.col_cnt);
    return out;
  }

  /// Read everything.
  [[nodiscard]] std::vector<double> read_all() const {
    return read_slab(Slab2D::whole(shape()));
  }
};

/// Logical Array View: a rectangular window onto another source (the
/// paper's LAV / HDF5-hyperslab analogue). Views compose: an LAV of an
/// LAV re-offsets into the ultimate source.
class Lav final : public ArraySource {
 public:
  Lav(std::shared_ptr<ArraySource> source, const Slab2D& window)
      : source_(std::move(source)), window_(window) {
    DASSA_CHECK(source_ != nullptr, "LAV requires a source");
    window_.validate_against(source_->shape());
  }

  [[nodiscard]] Shape2D shape() const override { return window_.shape(); }

  void read_slab_into(const Slab2D& slab, double* dst,
                      std::size_t dst_stride) const override {
    slab.validate_against(shape());
    const Slab2D absolute{window_.row_off + slab.row_off,
                          window_.col_off + slab.col_off, slab.row_cnt,
                          slab.col_cnt};
    source_->read_slab_into(absolute, dst, dst_stride);
  }

  [[nodiscard]] const Slab2D& window() const { return window_; }

 private:
  std::shared_ptr<ArraySource> source_;
  Slab2D window_;
};

/// An in-memory array exposed as a source (used by tests and by
/// pipelines that stage intermediate results).
class MemorySource final : public ArraySource {
 public:
  MemorySource(Shape2D shape, std::vector<double> data)
      : shape_(shape), data_(std::move(data)) {
    DASSA_CHECK(data_.size() == shape_.size(),
                "memory source data does not match shape");
  }

  [[nodiscard]] Shape2D shape() const override { return shape_; }

  void read_slab_into(const Slab2D& slab, double* dst,
                      std::size_t dst_stride) const override {
    slab.validate_against(shape_);
    DASSA_CHECK(dst_stride >= slab.col_cnt,
                "destination stride narrower than the selection");
    for (std::size_t r = 0; r < slab.row_cnt; ++r) {
      const double* src =
          data_.data() + shape_.at(slab.row_off + r, slab.col_off);
      std::copy(src, src + slab.col_cnt, dst + r * dst_stride);
    }
  }

 private:
  Shape2D shape_;
  std::vector<double> data_;
};

}  // namespace dassa::io
