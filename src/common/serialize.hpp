// DASSA internals: little-endian buffer serialisation, shared by the
// DASH5/VCA on-disk formats, the serve wire protocol and the metrics
// snapshot codec. Private to src/.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "dassa/common/error.hpp"

namespace dassa::detail {

/// Append-only little-endian encoder.
class Encoder {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian decoder; throws FormatError on
/// truncation.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> buf) : buf_(buf) {}

  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    check(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  void raw(void* p, std::size_t n) {
    check(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  // Subtraction form so a huge `n` cannot wrap past the bound
  // (pos_ <= buf_.size() is a class invariant).
  void check(std::size_t n) const {
    if (n > buf_.size() - pos_) {
      throw FormatError("truncated DASH5 header");
    }
  }
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace dassa::detail
