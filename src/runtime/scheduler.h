// The per-libOS poll clock and timer wheel: what is left of the paper's §5.4 scheduler.
//
// One scheduler per libOS instance; single-threaded. No op gets a coroutine or a thread: an op
// that must wait is a qtoken in its queue's FIFO (LibOS::PendingOps), completed by the libOS's
// fast path, which LibOS::PollOnce calls directly. What a poll still needs from here is one
// clock read and the timers that read makes due, in that order, before the fast path runs.

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
    stats_.timer_fires += wheel_.Advance(poll_time_);
    stats_.polls++;
    // demilint: end-fastpath
  }

  // The time the current Poll read (between polls, the last one's; 0 before the first). The
  // fast paths hand it to the devices they poll and to the TCP stack, so a poll reads the
  // clock once however many layers it runs; it is never later than the true time.
  TimeNs poll_time() const { return poll_time_; }

  // Cumulative counters (docs/OBSERVABILITY.md lists each as `sched.*`). Plain increments on
  // the poll path; registered into the owning libOS's MetricsRegistry as callback counters.
  struct Stats {
    uint64_t polls = 0;        // Poll() calls
    uint64_t timer_fires = 0;  // timers whose deadline fired
  };
  const Stats& stats() const { return stats_; }

  // Attaches a tracer for the wheel's kTimerWheelCascade events; nullptr detaches. The tracer
  // must outlive the scheduler.
  void SetTracer(Tracer* tracer) { wheel_.SetTracer(tracer); }

  // Cancellable callback timer on the scheduler's timing wheel (src/runtime/timer_wheel.h).
  // `cb(ctx, arg)` runs during a future Poll() once `deadline` is reached; O(1) arm/cancel, so
  // per-connection protocol timers (retransmit/delayed-ack/TIME_WAIT) re-arm freely at
  // million-connection scale. Cancelling an already-fired id is a safe no-op.
  TimerId ArmTimer(TimeNs deadline, TimerWheel::Callback cb, void* ctx, uint64_t arg) {
    return wheel_.Arm(deadline, cb, ctx, arg);
  }
  bool CancelTimer(TimerId id) { return wheel_.Cancel(id); }

  // The wheel itself, for `timerwheel.*` metrics and tests.
  const TimerWheel& timer_wheel() const { return wheel_; }

  // Earliest pending timer deadline, or 0 if none. Lets stepped-mode tests advance a
  // VirtualClock exactly to the next event.
  TimeNs NextTimerDeadline() const { return wheel_.NextDeadline(); }

 private:
  Clock& clock_;
  TimeNs poll_time_ = 0;
  TimerWheel wheel_;
  Stats stats_;
};

}  // namespace demi

#endif  // SRC_RUNTIME_SCHEDULER_H_
