// CRC-32 tests: the slicing-by-8 form must equal the bytewise table
// loop it replaced, bit for bit, at every length and start alignment,
// so every checksum already stored in DASH5 files, VCAs and interval
// indexes stays valid.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "../../src/io/serialize.hpp"
#include "dassa/common/error.hpp"

namespace dassa::io {
namespace {

/// The oracle: one table lookup per byte (reflected IEEE polynomial,
/// initial value and final XOR 0xFFFFFFFF).
std::uint32_t crc32_bytewise(const std::byte* data, std::size_t n) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ static_cast<std::uint32_t>(data[i])) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng() & 0xFFu);
  return out;
}

TEST(Crc32Test, StandardCheckValue) {
  const char text[] = "123456789";
  std::vector<std::byte> bytes(sizeof text - 1);
  std::memcpy(bytes.data(), text, bytes.size());
  EXPECT_EQ(detail::crc32(bytes.data(), bytes.size()), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBytewiseAtEveryShortLengthAndOffset) {
  const std::vector<std::byte> buf = random_bytes(64 + 8, 7);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(detail::crc32(buf.data() + off, len),
                crc32_bytewise(buf.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnOneMebibyte) {
  const std::vector<std::byte> buf = random_bytes(std::size_t{1} << 20, 2024);
  EXPECT_EQ(detail::crc32(buf.data(), buf.size()),
            crc32_bytewise(buf.data(), buf.size()));
}

TEST(Crc32Test, EmptyInputMayBeNullButNonEmptyMayNot) {
  EXPECT_EQ(detail::crc32(nullptr, 0), 0u);
  EXPECT_THROW((void)detail::crc32(nullptr, 1), InvalidArgument);
}

}  // namespace
}  // namespace dassa::io
