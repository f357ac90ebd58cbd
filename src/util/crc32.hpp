// crc32.hpp — CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Integrity check for the checkpoint files (core/checkpoint.hpp): every
// manifest and rank-state file ends with the CRC of its preceding bytes,
// so a torn write or bit flip is detected on --resume instead of
// silently corrupting a restored run. The set-bit wire code
// (distmat/panel_wire.hpp) seals every message the same way. A CRC-32
// detects every error burst up to 32 bits long, so any damage inside
// four consecutive bytes. Table-driven, eight bytes a step
// (slicing-by-8), then a byte at a time for the tail.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sas {

namespace detail {

/// kCrc32Tables[0] is the byte-at-a-time table; kCrc32Tables[k][b] is the
/// CRC of byte b followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffU];
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables =
    make_crc32_tables();

}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t size,
                                         std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    crc ^= static_cast<std::uint32_t>(bytes[0]) | static_cast<std::uint32_t>(bytes[1]) << 8 |
           static_cast<std::uint32_t>(bytes[2]) << 16 | static_cast<std::uint32_t>(bytes[3]) << 24;
    crc = t[7][crc & 0xffU] ^ t[6][(crc >> 8) & 0xffU] ^ t[5][(crc >> 16) & 0xffU] ^
          t[4][crc >> 24] ^ t[3][bytes[4]] ^ t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xffU] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sas
