#include "src/runtime/scheduler.h"

namespace demi {

namespace {

struct CurrentContext {
  Scheduler* sched = nullptr;
  Scheduler::FiberId fiber = Scheduler::kInvalidFiber;
};

thread_local CurrentContext g_current;

}  // namespace

SchedulerContextGuard::SchedulerContextGuard(Scheduler* sched, Scheduler::FiberId fiber)
    : prev_sched(g_current.sched), prev_fiber(g_current.fiber) {
  g_current.sched = sched;
  g_current.fiber = fiber;
}

SchedulerContextGuard::~SchedulerContextGuard() {
  g_current.sched = prev_sched;
  g_current.fiber = prev_fiber;
}

Scheduler* Scheduler::Current() { return g_current.sched; }

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  DEMI_CHECK_MSG(running_fiber_ == kInvalidFiber, "Shutdown during Poll");
  for (size_t id = 0; id < fibers_.size(); id++) {
    Fiber& f = fibers_[id];
    if (f.live && f.root) {
      f.root.destroy();
      f.root = {};
      f.resume_point = {};
      f.live = false;
      live_fibers_--;
      blocks_[id / 64].ready &= ~(1ULL << (id % 64));
      free_slots_.push_back(static_cast<FiberId>(id));
    }
  }
}

Scheduler::FiberId Scheduler::Spawn(Task<void> task) {
  DEMI_CHECK(task.valid());
  FiberId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<FiberId>(fibers_.size());
    fibers_.emplace_back();
    if ((id / 64) >= blocks_.size()) {
      blocks_.emplace_back();
    }
  }
  Fiber& f = fibers_[id];
  f.root = task.Release();
  f.resume_point = f.root;
  f.live = true;
  live_fibers_++;
  stats_.fibers_spawned++;
  WakerFor(id).Wake();
  return id;
}

size_t Scheduler::Poll() {
  // demilint: fastpath
  poll_time_ = clock_.Now();
  stats_.timer_fires += wheel_.Advance(poll_time_);
  stats_.polls++;
  size_t resumed = 0;
  const size_t num_blocks = blocks_.size();  // snapshot: fibers spawned mid-poll run next round
  for (size_t b = 0; b < num_blocks; b++) {
    uint64_t bits = blocks_[b].ready;
    if (bits == 0) {
      stats_.blocks_skipped++;
      continue;
    }
    stats_.blocks_scanned++;
    blocks_[b].ready &= ~bits;  // consume readiness; running fibers must re-arm to stay runnable
    ForEachSetBit(bits, [&](int bit) {
      const FiberId id = static_cast<FiberId>(b * 64 + static_cast<size_t>(bit));
      if (id >= fibers_.size() || !fibers_[id].live) {
        stats_.stale_wakes++;
        return;  // stale wake of a recycled/dead slot
      }
      fibers_[id].runs++;
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventType::kFiberScheduled, id, fibers_[id].runs);
      }
      std::coroutine_handle<> to_run = fibers_[id].resume_point;
      {
        SchedulerContextGuard guard(this, id);
        running_fiber_ = id;
        to_run.resume();
        running_fiber_ = kInvalidFiber;
      }
      resumed++;
      // Re-index: the fiber may have spawned others, reallocating fibers_.
      if (fibers_[id].root.done()) {
        ReleaseFiber(id);
      }
    });
  }
  stats_.resumptions += resumed;
  return resumed;
  // demilint: end-fastpath
}

size_t Scheduler::NumRunnable() const {
  size_t n = 0;
  for (const WakerBlock& b : blocks_) {
    n += static_cast<size_t>(std::popcount(b.ready));
  }
  return n;
}

Waker Scheduler::CurrentWaker() {
  DEMI_CHECK(running_fiber_ != kInvalidFiber);
  return WakerFor(running_fiber_);
}

Waker Scheduler::WakerFor(FiberId id) {
  DEMI_CHECK(id / 64 < blocks_.size());
  return Waker(&blocks_[id / 64].ready, 1ULL << (id % 64));
}

void Scheduler::AddTimer(TimeNs deadline, Waker waker) {
  if (!waker.valid()) {
    return;
  }
  wheel_.Arm(deadline, &Scheduler::WakeWordCb, waker.word_, waker.mask_);
}

TimeNs Scheduler::NextTimerDeadline() const { return wheel_.NextDeadline(); }

void Scheduler::SetResumePoint(std::coroutine_handle<> h) {
  DEMI_CHECK(running_fiber_ != kInvalidFiber);
  fibers_[running_fiber_].resume_point = h;
}

void Scheduler::ReleaseFiber(FiberId id) {
  stats_.fibers_completed++;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kFiberCompleted, id);
  }
  Fiber& f = fibers_[id];
  f.root.destroy();
  f.root = {};
  f.resume_point = {};
  f.live = false;
  live_fibers_--;
  // Drop any pending readiness so a recycled slot starts clean.
  blocks_[id / 64].ready &= ~(1ULL << (id % 64));
  free_slots_.push_back(id);
}

void Scheduler::Yield::await_suspend(std::coroutine_handle<> h) noexcept {
  Scheduler* s = Scheduler::Current();
  DEMI_CHECK(s != nullptr);
  s->SetResumePoint(h);
  s->stats_.yields++;
  if (s->tracer_ != nullptr) {
    s->tracer_->Record(TraceEventType::kFiberYielded, s->running_fiber_);
  }
  s->CurrentWaker().Wake();  // stay runnable
}

void Scheduler::SleepAwaitable::await_suspend(std::coroutine_handle<> h) noexcept {
  DEMI_CHECK(Scheduler::Current() == sched);
  sched->SetResumePointForAwait(h);  // a sleep is a blocking suspension, not a yield
  sched->AddTimer(deadline, sched->CurrentWaker());
}

}  // namespace demi
