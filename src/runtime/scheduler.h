// The per-libOS poll clock and timer wheel: what is left of the paper's §5.4 scheduler.
//
// One scheduler per libOS instance; single-threaded. What LibOS::PollOnce needs from here is
// one clock read and the timers that read makes due, in that order, before the fast path runs.

#ifndef SRC_RUNTIME_SCHEDULER_H_
#define SRC_RUNTIME_SCHEDULER_H_

#include <cstdint>

#include "src/common/clock.h"
#include "src/observability/trace.h"
#include "src/runtime/timer_wheel.h"

namespace demi {

class Scheduler {  // demilint: shard-local
 public:
  explicit Scheduler(Clock& clock) : clock_(clock) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Reads the clock once, keeps that value as the poll's time (poll_time()) and fires the
  // timers it makes due.
  void Poll() {
    // demilint: fastpath
    poll_time_ = clock_.Now();
    wheel_.Advance(poll_time_);
    polls_++;
    // demilint: end-fastpath
  }

  // The time the current Poll read (between polls, the last one's; 0 before the first). The
  // fast paths hand it to the devices they poll and to the TCP stack, so a poll reads the
  // clock once however many layers it runs; it is never later than the true time.
  TimeNs poll_time() const { return poll_time_; }

  uint64_t polls() const { return polls_; }  // Poll() calls so far (`sched.polls`)

  // The wheel's tracer (TimerWheel::SetTracer); it must outlive the scheduler.
  void SetTracer(Tracer* tracer) { wheel_.SetTracer(tracer); }

  // A timer on the wheel (TimerWheel::Arm and Cancel): `cb(ctx, arg)` runs in the first Poll()
  // whose clock reaches `deadline`.
  TimerId ArmTimer(TimeNs deadline, TimerWheel::Callback cb, void* ctx, uint64_t arg) {
    return wheel_.Arm(deadline, cb, ctx, arg);
  }
  bool CancelTimer(TimerId id) { return wheel_.Cancel(id); }

  // The wheel: its next deadline (stepped-mode tests) and counters (`timerwheel.*` metrics).
  const TimerWheel& timer_wheel() const { return wheel_; }

 private:
  Clock& clock_;
  TimeNs poll_time_ = 0;
  uint64_t polls_ = 0;
  TimerWheel wheel_;
};

}  // namespace demi

#endif  // SRC_RUNTIME_SCHEDULER_H_
