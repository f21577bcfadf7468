// Seeded inputs. Everything the benchmark sends is a pure function of --seed: Poisson arrival
// gaps, the miniKV key/op/value-size mix, and the payload bytes. The program under test only
// ever sees the generated requests.

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"

namespace perfbench {

// kv-aof shape: 100k preloaded keys, zipf(0.99) popularity, 90% GET / 10% SET, values of
// 64 B / 1 KB / 4 KB weighted 70/20/10 (some cross the 1 KB zero-copy threshold and the MSS).
constexpr uint32_t kKvKeys = 100'000;
constexpr double kKvZipfTheta = 0.99;
constexpr double kKvSetShare = 0.10;
constexpr uint32_t kKvValueSizes[3] = {64, 1024, 4096};
constexpr uint32_t kKvValueWeights[3] = {70, 20, 10};

constexpr size_t kEchoBytes = 64;

struct KvOp {
  bool is_set = false;
  uint32_t key = 0;
  uint32_t value_size = 0;  // SETs only
};

// One independent input stream. Each phase of a run draws from its own stream (seeded from
// the run seed and the phase), so a phase's inputs do not depend on how long earlier phases ran.
class InputStream {
 public:
  InputStream(uint64_t seed, uint64_t phase);

  // Exponential inter-arrival gap for a Poisson process of `rate_per_s` arrivals per second.
  demi::DurationNs NextGapNs(double rate_per_s);
  KvOp NextKvOp();
  uint32_t NextValueSize();

 private:
  demi::Rng rng_;
  demi::ZipfGenerator zipf_;
};

// Payload bytes: slices of one seeded pattern, stamped with an identity so a stale or misrouted
// reply can never match. Regenerating a payload for verification is a memcpy.
class Payloads {
 public:
  explicit Payloads(uint64_t seed);

  // The 64 B echo message of request `id`.
  void Echo(uint64_t id, std::span<uint8_t> out) const;
  // The value written by SET number `version` of `key` (size = out.size(), at least 8).
  void Value(uint32_t key, uint32_t version, std::span<uint8_t> out) const;

 private:
  void Fill(uint64_t stamp, std::span<uint8_t> out) const;
  std::vector<uint8_t> pattern_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
