#include "perfbench/src/clock.h"

#include <algorithm>
#include <cstdint>

namespace perfbench {

namespace {

// Calibration kernel: xorshift-driven read-modify-writes over a 4 KB table. Probe() runs it
// twice and times the second run, so the program's use of the cache between probes does not
// show; what shows is the host's speed.
uint64_t g_table[512];

uint64_t Kernel() {
  uint64_t s0 = 0x9e3779b97f4a7c15ULL;
  uint64_t s1 = 0xbf58476d1ce4e5b9ULL;
  uint64_t acc = 0;
  for (int i = 0; i < 1000; i++) {
    uint64_t x = s0;
    const uint64_t y = s1;
    s0 = y;
    x ^= x << 23;
    s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
    const uint64_t r = s1 + y;
    uint64_t& slot = g_table[r & 511];
    acc += slot * 0x9e3779b97f4a7c15ULL + (r >> 7);
    slot = acc ^ (acc >> 13);
  }
  return acc;
}

}  // namespace

BenchClock& TheClock() {
  static BenchClock clock;
  return clock;
}

demi::TimeNs BenchClock::Now() const {
  const demi::TimeNs host = HostNowNs();
  demi::DurationNs gap = host - last_host_;
  if (gap > kMaxGapNs) {
    clipped_ += gap - kMaxGapNs;
    gap = kMaxGapNs;
  }
  now_ += static_cast<double>(gap) * speed_;
  host_kept_ += static_cast<double>(gap);
  last_host_ = host;
  if (host >= next_probe_) {
    Probe();
  }
  return static_cast<demi::TimeNs>(now_);
}

void BenchClock::Calibrate() const {
  for (size_t i = 0; i < probes_.size(); i++) {
    Probe();
  }
}

void BenchClock::Probe() const {
  g_table[0] += Kernel();
  const demi::TimeNs t0 = HostNowNs();
  g_table[0] += Kernel();
  const demi::TimeNs t1 = HostNowNs();
  probes_[probe_index_++ % probes_.size()] = static_cast<double>(t1 - t0);
  double fastest = 0;
  for (double p : probes_) {
    if (p > 0 && (fastest == 0 || p < fastest)) {
      fastest = p;
    }
  }
  speed_ = std::clamp(kRefProbeNs / fastest, kMinSpeed, 1.0);
  last_host_ = t1;  // the kernel's runs are not program time
  next_probe_ = t1 + kProbePeriodNs;
}

}  // namespace perfbench
