// Blocking primitives built on one-shot callbacks.
//
// Event follows the paper's design: a blocked coroutine stashes a pointer to its readiness flag
// with the event source; whoever triggers the event (e.g., the fast-path coroutine receiving a
// packet for that TCP connection) sets the stashed bit, making the coroutine runnable again.
// A waiter is the `(callback, ctx, arg)` triple the timer wheel also stores: a fiber waits as
// Scheduler::WakeWordCb on its ready word, and a libOS can hook a plain callback instead of
// spawning a fiber (a network libOS records the queue whose pending ops the event may satisfy;
// see LibOS::ServePending).
// All waits are edge-triggered and may wake spuriously; callers always loop over a predicate.

#ifndef SRC_RUNTIME_EVENT_H_
#define SRC_RUNTIME_EVENT_H_

#include <coroutine>
#include <vector>

#include "src/common/logging.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/timer_wheel.h"

namespace demi {

class Event {
 public:
  using Callback = TimerWheel::Callback;

  Event() = default;
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  // Runs and drops every registered waiter. Cheap when nobody waits (the common fast-path
  // case). A callback must not register on, or notify, this same event.
  void Notify() {
    // demilint: fastpath
    for (const Waiter& w : waiters_) {
      w.cb(w.ctx, w.arg);
    }
    waiters_.clear();
    // demilint: end-fastpath
  }

  // Registers `cb(ctx, arg)` to run once, at the next Notify().
  void OnNotify(Callback cb, void* ctx, uint64_t arg) {
    // demilint: fastpath
    // demilint: allow(fastpath-alloc) Notify's clear() keeps the capacity, so this grows only when more waiters than ever before wait at once
    waiters_.push_back(Waiter{cb, ctx, arg});
    // demilint: end-fastpath
  }

  bool HasWaiters() const { return !waiters_.empty(); }

  // co_await event.Wait(): blocks the current fiber until the next Notify().
  struct WaitAwaitable {
    Event* event;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      Scheduler* s = Scheduler::Current();
      DEMI_CHECK(s != nullptr);
      s->SetResumePointForAwait(h);
      event->OnWake(s->CurrentWaker());
    }
    void await_resume() const noexcept {}
  };
  WaitAwaitable Wait() { return WaitAwaitable{this}; }

 private:
  struct Waiter {
    Callback cb;
    void* ctx;
    uint64_t arg;
  };

  void OnWake(const Waker& w) { OnNotify(&Scheduler::WakeWordCb, w.word_, w.mask_); }

  std::vector<Waiter> waiters_;
};

}  // namespace demi

#endif  // SRC_RUNTIME_EVENT_H_
