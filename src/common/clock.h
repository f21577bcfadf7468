// Time sources.
//
// Catnip's TCP stack is deterministic: "Every TCP operation is parameterized on a time value"
// (paper §6.3). All protocol code in this repo therefore takes a Clock&, so tests can drive a
// VirtualClock through loss/retransmission scenarios reproducibly while benchmarks use the
// monotonic system clock.
//
// Who reads the clock, and when:
//  - Scheduler::Poll reads it once per poll and keeps the value as the poll's time
//    (Scheduler::poll_time). The timer wheel advances to it, and each libOS fast path hands it
//    to the devices it polls (SimNic::RxBurst, SimRdmaDevice::PollCq,
//    SimBlockDevice::PollCompletions) and to the TCP stack, which runs every segment of the
//    burst, the burst-end acks and every timer callback on it. A poll therefore reads the
//    clock once, whatever it finds to do. The poll's time is never later than the true time,
//    so a frame or completion that falls due mid-poll shows up one poll later, never earlier.
//  - App-facing TCP calls that send or arm a timer (Push, Close, an active Connect) run
//    between polls and read the clock once on entry. A pop reads none: the delayed ack it may
//    arm uses the last poll's time, at most one poll old.
//  - SimNic::TxBurst stamps each frame's departure with a fresh read. A stamp taken at the
//    start of the poll would shorten the simulated link by however long the poll had run, so
//    the wire would model a different link.

#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace demi {

// Nanoseconds since an arbitrary epoch.
using TimeNs = uint64_t;
using DurationNs = uint64_t;

constexpr DurationNs kMicrosecond = 1'000;
constexpr DurationNs kMillisecond = 1'000'000;
constexpr DurationNs kSecond = 1'000'000'000;

class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeNs Now() const = 0;
  // True for manually-stepped clocks (VirtualClock): time only moves when code moves it, so
  // pollers that would otherwise busy-wait for a deadline must step the clock themselves.
  virtual bool IsManual() const { return false; }
  // Steps a manual clock forward to `t`; no-op on real clocks (time advances on its own) and
  // when `t` is in the past (time never goes backwards).
  virtual void AdvanceTo(TimeNs t) {}
};

// Wall-clock-free monotonic time; used by benchmarks and live runs.
class MonotonicClock final : public Clock {
 public:
  TimeNs Now() const override {
    return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
  }

  static MonotonicClock& Global() {
    static MonotonicClock clock;
    return clock;
  }
};

// Manually advanced clock for deterministic protocol tests.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(TimeNs start = 0) : now_(start) {}

  TimeNs Now() const override { return now_; }
  bool IsManual() const override { return true; }
  void AdvanceTo(TimeNs t) override {
    if (t > now_) {
      now_ = t;
    }
  }
  void Advance(DurationNs delta) { now_ += delta; }
  void SetTime(TimeNs t) { now_ = t; }

 private:
  TimeNs now_;
};

}  // namespace demi

#endif  // SRC_COMMON_CLOCK_H_
