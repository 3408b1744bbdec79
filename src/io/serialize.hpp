// DASH5 internals: the shared little-endian codec plus CRC32.
// Private to src/io.
#pragma once

#include <cstddef>
#include <cstdint>

#include "../common/serialize.hpp"

namespace dassa::io::detail {

using dassa::detail::Decoder;
using dassa::detail::Encoder;

/// CRC-32 (IEEE 802.3 polynomial, reflected, initial value and final
/// XOR 0xFFFFFFFF) of a byte buffer, computed slicing-by-8: eight
/// table lookups fold in eight bytes at a time.
[[nodiscard]] std::uint32_t crc32(const std::byte* data, std::size_t n);

}  // namespace dassa::io::detail
