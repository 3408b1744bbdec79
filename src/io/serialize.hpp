// DASH5 internals: the shared little-endian codec plus CRC32.
// Private to src/io.
#pragma once

#include <cstddef>
#include <cstdint>

#include "../common/serialize.hpp"

namespace dassa::io::detail {

using dassa::detail::Decoder;
using dassa::detail::Encoder;

/// CRC-32 (IEEE 802.3 polynomial) of a byte buffer.
[[nodiscard]] std::uint32_t crc32(const std::byte* data, std::size_t n);

}  // namespace dassa::io::detail
