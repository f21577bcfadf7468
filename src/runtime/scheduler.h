// The Demikernel coroutine scheduler (paper §5.4).
//
// One scheduler per libOS instance; single-threaded and cooperative. Fibers (spawned Task<void>
// coroutines) are either *runnable* or *blocked*. Readiness is one bit per fiber kept in 64-bit
// "waker blocks"; a Waker is a pointer to one such bit. Poll() scans the blocks with tzcnt-based
// set-bit iteration (Lemire's algorithm) so finding the next runnable coroutine among thousands
// of mostly-blocked ones costs nanoseconds.
//
// Wake-up protocol (Rust-futures-style, as in the paper): before resuming a fiber its ready bit
// is cleared; the fiber either
//   - co_awaits Yield{}            -> re-sets its own bit (stays runnable),
//   - co_awaits an Event/Timer     -> stashes its Waker with the event source and stays blocked
//                                     until some other coroutine (or a timer) sets the bit.
// Spurious wakes are permitted, so all blocking sites loop over their predicate.

#ifndef SRC_RUNTIME_SCHEDULER_H_
#define SRC_RUNTIME_SCHEDULER_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/observability/trace.h"
#include "src/runtime/task.h"
#include "src/runtime/timer_wheel.h"

namespace demi {

class Scheduler;

// A handle that can mark one fiber runnable. Stable for the lifetime of the fiber's slot; waking
// a slot that has since been recycled produces at worst a spurious wake, which blocking code
// tolerates by re-checking its predicate.
class Waker {
 public:
  Waker() = default;
  Waker(uint64_t* word, uint64_t mask) : word_(word), mask_(mask) {}

  void Wake() const {
    if (word_ != nullptr) {
      *word_ |= mask_;
    }
  }
  bool valid() const { return word_ != nullptr; }

 private:
  friend class Scheduler;  // timer-wheel and Event waiters store the raw word/mask pair
  friend class Event;

  uint64_t* word_ = nullptr;
  uint64_t mask_ = 0;
};

class Scheduler {  // demilint: shard-local
 public:
  using FiberId = uint32_t;
  static constexpr FiberId kInvalidFiber = UINT32_MAX;

  explicit Scheduler(Clock& clock) : clock_(clock) {}
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Takes ownership of the task's coroutine frame and schedules it runnable.
  FiberId Spawn(Task<void> task);

  // Destroys every live fiber frame without running it further. LibOS destructors call this
  // FIRST: fiber frames own resources (buffer references, connection shared_ptrs) that must be
  // released while the heap and devices those resources point into still exist — member
  // destruction order alone would tear the allocator down before the base-class scheduler.
  void Shutdown();

  // Runs every currently-runnable fiber once (plus any fibers that become runnable during the
  // round, on subsequent rounds of a future Poll). Reads the clock once, keeps that value as
  // the poll's time (poll_time()) and fires the timers it makes due before resuming anyone.
  // Returns the number of fiber resumptions performed.
  size_t Poll();

  // Convenience: polls until `pred()` is true or `timeout` elapses (0 = no timeout).
  // Returns true if the predicate was met.
  //
  // On a manual clock (VirtualClock) an idle poll round — zero resumptions, empty run queue —
  // can never make progress by itself: nothing advances virtual time, so pending timers never
  // fire. In that situation the clock is stepped to the next timer deadline; with no timers
  // pending the loop returns false instead of spinning forever.
  template <typename Pred>
  bool PollUntil(Pred&& pred, DurationNs timeout = 0) {
    const TimeNs deadline = timeout == 0 ? 0 : clock_.Now() + timeout;
    while (!pred()) {
      const size_t resumed = Poll();
      if (deadline != 0 && clock_.Now() >= deadline) {
        return pred();
      }
      if (resumed == 0 && NumRunnable() == 0 && clock_.IsManual()) {
        const TimeNs next = NextTimerDeadline();
        if (next == 0) {
          return pred();  // live-locked: no runnable fibers, no timers, frozen clock
        }
        clock_.AdvanceTo(deadline != 0 ? std::min(next, deadline) : next);
      }
    }
    return true;
  }

  // --- Introspection ---
  size_t NumLiveFibers() const { return live_fibers_; }
  size_t NumRunnable() const;
  Clock& clock() { return clock_; }
  // The time the current Poll read (between polls, the last one's; 0 before the first). The
  // fast paths hand it to the devices they poll and to the TCP stack, so a poll reads the
  // clock once however many layers it runs; it is never later than the true time.
  TimeNs poll_time() const { return poll_time_; }

  // Cumulative scheduling counters (docs/OBSERVABILITY.md lists each as `sched.*`). Plain
  // increments on the poll path; registered into the owning libOS's MetricsRegistry as
  // callback gauges.
  struct Stats {
    uint64_t polls = 0;              // Poll() calls
    uint64_t resumptions = 0;        // fiber resumes across all polls
    uint64_t fibers_spawned = 0;
    uint64_t fibers_completed = 0;
    uint64_t timer_fires = 0;        // timers whose deadline fired
    uint64_t stale_wakes = 0;        // ready bits of dead/recycled slots
    uint64_t blocks_scanned = 0;     // waker blocks with at least one ready bit
    uint64_t blocks_skipped = 0;     // waker blocks skipped because all 64 bits were clear
    uint64_t yields = 0;             // co_await Yield{} suspensions
    uint64_t fiber_blocks = 0;       // suspensions into a blocking awaitable (Event/Sleep)
  };
  const Stats& stats() const { return stats_; }

  // Attaches a tracer for kFiberScheduled/kFiberBlocked/kFiberYielded/kFiberCompleted and
  // kTimerWheelCascade events; nullptr detaches. The tracer must outlive the scheduler.
  void SetTracer(Tracer* tracer) {
    tracer_ = tracer;
    wheel_.SetTracer(tracer);
  }

  // --- Called from inside a running fiber (via thread-local current context) ---
  static Scheduler* Current();

  // Waker for the currently running fiber.
  Waker CurrentWaker();
  Waker WakerFor(FiberId id);

  // Registers a one-shot timer that wakes `waker` at `deadline`. Fire-and-forget: there is no
  // handle, so the wake happens regardless (spurious wakes are tolerated everywhere).
  void AddTimer(TimeNs deadline, Waker waker);

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

  // Called by blocking awaitables at suspension: records where to resume the current fiber.
  // `h` is the innermost suspended coroutine of the running fiber. Distinct from the Yield
  // path so blocked-vs-yielded suspensions are counted (and traced) separately.
  void SetResumePointForAwait(std::coroutine_handle<> h) {
    SetResumePoint(h);
    stats_.fiber_blocks++;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kFiberBlocked, running_fiber_);
    }
  }

  // Earliest pending timer deadline, or 0 if none. Lets stepped-mode tests advance a
  // VirtualClock exactly to the next event.
  TimeNs NextTimerDeadline() const;

  // --- Awaitables ---

  // co_await Yield{}: reschedule the current fiber behind other runnable work.
  struct Yield {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };

  // co_await scheduler.Sleep(d): block for at least d (measured on the scheduler clock).
  struct SleepAwaitable {
    Scheduler* sched;
    TimeNs deadline;
    bool await_ready() const noexcept { return sched->clock_.Now() >= deadline; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  SleepAwaitable Sleep(DurationNs d) { return SleepAwaitable{this, clock_.Now() + d}; }
  SleepAwaitable SleepUntil(TimeNs t) { return SleepAwaitable{this, t}; }

 private:
  friend class Event;

  struct WakerBlock {
    uint64_t ready = 0;
  };

  struct Fiber {
    std::coroutine_handle<internal::Promise<void>> root;  // for done-check and destroy
    std::coroutine_handle<> resume_point;                 // innermost suspended coroutine
    bool live = false;
    uint64_t runs = 0;  // resumptions of this slot (survives slot reuse; per-fiber run count)
  };

  // Set by awaitables at suspension: where to resume this fiber next.
  void SetResumePoint(std::coroutine_handle<> h);
  void ReleaseFiber(FiberId id);

  Clock& clock_;
  TimeNs poll_time_ = 0;
  std::deque<WakerBlock> blocks_;  // deque: Waker pointers must stay stable as fibers spawn
  std::vector<Fiber> fibers_;
  std::vector<FiberId> free_slots_;
  size_t live_fibers_ = 0;

  // Wake-a-fiber timer and Event callback: `ctx` is the waker block word, `arg` the ready-bit
  // mask.
  static void WakeWordCb(void* ctx, uint64_t arg) { *static_cast<uint64_t*>(ctx) |= arg; }

  TimerWheel wheel_;
  FiberId running_fiber_ = kInvalidFiber;
  Stats stats_;
  Tracer* tracer_ = nullptr;
};

// RAII guard for the thread-local current-scheduler context (exposed for tests).
struct SchedulerContextGuard {
  SchedulerContextGuard(Scheduler* sched, Scheduler::FiberId fiber);
  ~SchedulerContextGuard();
  Scheduler* prev_sched;
  Scheduler::FiberId prev_fiber;
};

}  // namespace demi

#endif  // SRC_RUNTIME_SCHEDULER_H_
