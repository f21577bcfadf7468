// Event: one-shot callbacks that run at the next Notify().
//
// A waiter is the `(callback, ctx, arg)` triple the timer wheel also stores. A libOS hooks the
// Event an op waits on with a callback that only records the op's queue (see
// LibOS::ServePending); its fast path then serves the recorded queues in the same poll.
// Notifies are edge-triggered: a waiter registered after a Notify waits for the next one, so
// callers re-check their predicate before they register.

#ifndef SRC_RUNTIME_EVENT_H_
#define SRC_RUNTIME_EVENT_H_

#include <vector>

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

 private:
  struct Waiter {
    Callback cb;
    void* ctx;
    uint64_t arg;
  };

  std::vector<Waiter> waiters_;
};

}  // namespace demi

#endif  // SRC_RUNTIME_EVENT_H_
