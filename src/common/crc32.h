// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8. Used by the log record format
// (docs/STORAGE.md): recovery must distinguish a fully durable record from the prefix a torn
// write left on the media, which magic+length alone cannot do.

#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace demi {

namespace crc32_internal {

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC of byte b followed by
// k zero bytes, so eight lookups fold eight input bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; i++) {
    for (size_t k = 1; k < 8; k++) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

}  // namespace crc32_internal

// Incremental form: pass the previous return value as `seed` to continue a running CRC across
// discontiguous spans (the scatter-gather append CRCs each payload slice in place).
inline uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed = 0) {
  const auto& t = crc32_internal::kTables;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    if constexpr (std::endian::native == std::endian::big) {
      lo = __builtin_bswap32(lo);
      hi = __builtin_bswap32(hi);
    }
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; data++, len--) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace demi

#endif  // SRC_COMMON_CRC32_H_
