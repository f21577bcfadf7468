// Seed selection shared by the chaos soaks (docs/FAULTS.md): DEMI_FAULT_SEED=<n> replays
// exactly one seed; otherwise seeds 1..N run, N = DEMI_CHAOS_SEEDS (at least 1) or the
// scenario's default count.

#ifndef TESTS_CHAOS_SEEDS_H_
#define TESTS_CHAOS_SEEDS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace demi {

inline std::vector<uint64_t> ChaosSeeds(uint64_t default_count) {
  if (const char* s = std::getenv("DEMI_FAULT_SEED")) {
    return {std::strtoull(s, nullptr, 10)};
  }
  uint64_t count = default_count;
  if (const char* c = std::getenv("DEMI_CHAOS_SEEDS")) {
    count = std::max<uint64_t>(std::strtoull(c, nullptr, 10), 1);
  }
  std::vector<uint64_t> seeds;
  for (uint64_t i = 1; i <= count; i++) {
    seeds.push_back(i);
  }
  return seeds;
}

}  // namespace demi

#endif  // TESTS_CHAOS_SEEDS_H_
