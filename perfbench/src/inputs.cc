#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

constexpr size_t kPatternBytes = 64 * 1024;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

InputStream::InputStream(uint64_t seed, uint64_t phase)
    : rng_(Mix(seed) ^ Mix(phase + 1)),
      zipf_(kKvKeys, kKvZipfTheta, Mix(seed + 7) ^ Mix(phase + 11)) {}

demi::DurationNs InputStream::NextGapNs(double rate_per_s) {
  // 1 - u lies in (0, 1], so the log is finite.
  const double u = 1.0 - rng_.NextDouble();
  return static_cast<demi::DurationNs>(-std::log(u) * 1e9 / rate_per_s);
}

uint32_t InputStream::NextValueSize() {
  uint32_t total = 0;
  for (uint32_t w : kKvValueWeights) {
    total += w;
  }
  uint64_t pick = rng_.NextBounded(total);
  for (size_t i = 0; i < 3; i++) {
    if (pick < kKvValueWeights[i]) {
      return kKvValueSizes[i];
    }
    pick -= kKvValueWeights[i];
  }
  return kKvValueSizes[2];
}

KvOp InputStream::NextKvOp() {
  KvOp op;
  op.key = static_cast<uint32_t>(zipf_.Next());
  op.is_set = rng_.NextBool(kKvSetShare);
  if (op.is_set) {
    op.value_size = NextValueSize();
  }
  return op;
}

Payloads::Payloads(uint64_t seed) : pattern_(kPatternBytes + 4096) {
  demi::Rng rng(Mix(seed) ^ 0x5061796c6f616473ULL);
  for (size_t i = 0; i < pattern_.size(); i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(pattern_.data() + i, &v, 8);
  }
}

void Payloads::Fill(uint64_t stamp, std::span<uint8_t> out) const {
  const size_t off = Mix(stamp) % kPatternBytes;
  std::memcpy(out.data(), pattern_.data() + off, out.size());
  std::memcpy(out.data(), &stamp, std::min<size_t>(8, out.size()));
}

void Payloads::Echo(uint64_t id, std::span<uint8_t> out) const { Fill(id, out); }

void Payloads::Value(uint32_t key, uint32_t version, std::span<uint8_t> out) const {
  Fill((static_cast<uint64_t>(key) << 32) | version, out);
}

}  // namespace perfbench
