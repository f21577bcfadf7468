// The benchmark's clock: host time with host stalls cut out and host slow spells scaled away.
//
// The benchmark runs on one thread in a shared VM, and the simulated fabric, timers and disk
// all run on the clock. Two kinds of host noise would otherwise read as program behaviour:
//
// - Stalls. The hypervisor deschedules the thread for 0.05-30 ms at a time; to the program that
//   looks like a freeze mid-request, to an open loop like a burst of late requests. The program
//   reads the clock every few microseconds while it runs (every poll, every timer check), so a
//   gap of more than kMaxGapNs between two reads is taken to be the host and only kMaxGapNs of
//   it is kept. Program work that did not read the clock for that long would be clipped too,
//   so the clipped total is reported.
// - Slow spells. For seconds at a time the host runs the thread up to ~2x slower (a busy
//   sibling hyperthread, a lower clock frequency). Every kProbePeriodNs the clock times a fixed
//   calibration kernel that shares no code with the program; while the kernel runs slower than
//   kRefProbeNs, time advances proportionally slower, so that time is counted at the reference
//   host speed. The kernel's own run is cut from the timeline.
//
// A program change moves none of this: the gap rule only ever removes host time, and the
// kernel does not run program code.

#ifndef PERFBENCH_SRC_CLOCK_H_
#define PERFBENCH_SRC_CLOCK_H_

#include <array>
#include <chrono>

#include "src/common/clock.h"

namespace perfbench {

inline demi::TimeNs HostNowNs() {
  return static_cast<demi::TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now().time_since_epoch())
                                       .count());
}

class BenchClock final : public demi::Clock {
 public:
  static constexpr demi::DurationNs kMaxGapNs = 50 * demi::kMicrosecond;
  static constexpr demi::DurationNs kProbePeriodNs = 10 * demi::kMillisecond;
  // The calibration kernel's time on a quiet host (Intel Xeon at 2.1 GHz in a 4-vCPU VM).
  static constexpr double kRefProbeNs = 1900;
  // Time never runs more than 2x slower than the host, which bounds a run's wall time.
  static constexpr double kMinSpeed = 0.5;

  demi::TimeNs Now() const override;

  // Fills the probe window so the speed factor is known before the first measurement.
  void Calibrate() const;
  // Current speed factor: reference speed / host speed, at most 1.
  double speed() const { return speed_; }

  // Host time cut from the timeline as stalls so far.
  demi::DurationNs clipped() const { return clipped_; }
  // Mean speed factor applied so far (1 = the host ran at reference speed throughout).
  double mean_speed() const { return host_kept_ == 0 ? 1.0 : now_ / host_kept_; }

 private:
  void Probe() const;

  mutable demi::TimeNs last_host_ = HostNowNs();
  mutable demi::TimeNs next_probe_ = 0;
  mutable double now_ = 0;        // the timeline, ns
  mutable double host_kept_ = 0;  // host ns that advanced it
  mutable double speed_ = 1.0;
  mutable demi::DurationNs clipped_ = 0;
  mutable std::array<double, 8> probes_{};  // recent kernel times; the minimum sets the speed
  mutable size_t probe_index_ = 0;
};

// The one clock of the process: the simulated devices, the libOSes and every latency and span
// the benchmark measures read it. (Single-threaded by construction.)
BenchClock& TheClock();

inline demi::TimeNs NowNs() { return TheClock().Now(); }

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLOCK_H_
