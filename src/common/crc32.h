// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over a byte span.
//
// Every snapshot section and every DPXCOL header and column carries a CRC,
// so a torn write, bit rot, or a hand-edited file is refused at load time
// instead of being replayed into wrong budget ledgers or rows. Table-driven, no dependencies; the
// 256-entry table is built once on first use.

#ifndef DPCLUSTX_COMMON_CRC32_H_
#define DPCLUSTX_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace dpclustx {

inline const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

/// CRC-32 of `size` bytes at `data`. Pass the previous return value as
/// `seed` to checksum a discontiguous stream.
inline uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) {
  const auto& table = Crc32Table();
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xffu];
  }
  return ~crc;
}

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_CRC32_H_
