// Bit-manipulation helpers: the timer wheel's occupancy scan finds its next occupied slot with
// tzcnt (std::countr_zero) rather than scanning bit by bit, and the SPSC ring sizes itself to a
// power of two.

#ifndef SRC_COMMON_BITOPS_H_
#define SRC_COMMON_BITOPS_H_

#include <bit>
#include <cstdint>

namespace demi {

// Returns the index of the lowest set bit, or -1 if none.
inline int LowestSetBit(uint64_t bits) {
  if (bits == 0) {
    return -1;
  }
  return std::countr_zero(bits);
}

inline bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

// Smallest power of two >= v (v must be >= 1 and representable).
inline uint64_t NextPowerOfTwo(uint64_t v) { return std::bit_ceil(v); }

}  // namespace demi

#endif  // SRC_COMMON_BITOPS_H_
