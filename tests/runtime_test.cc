// Unit tests for the coroutine runtime: Task, Scheduler, Waker blocks, Event, timers.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/clock.h"
#include "src/runtime/event.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"

namespace demi {
namespace {

Task<int> ReturnsValue() { co_return 42; }

Task<int> AwaitsSubtask() {
  int v = co_await ReturnsValue();
  co_return v + 1;
}

TEST(SchedulerTest, RunsSpawnedFiberToCompletion) {
  VirtualClock clock;
  Scheduler sched(clock);
  bool ran = false;
  sched.Spawn([](bool* flag) -> Task<void> {
    *flag = true;
    co_return;
  }(&ran));
  EXPECT_EQ(sched.NumLiveFibers(), 1u);
  sched.Poll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.NumLiveFibers(), 0u);
}

TEST(SchedulerTest, NestedTaskAwaitPropagatesValues) {
  VirtualClock clock;
  Scheduler sched(clock);
  int result = 0;
  sched.Spawn([](int* out) -> Task<void> {
    *out = co_await AwaitsSubtask();
    co_return;
  }(&result));
  sched.Poll();
  EXPECT_EQ(result, 43);
}

TEST(SchedulerTest, YieldInterleavesFibers) {
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  auto fiber = [](std::vector<int>* out, int id) -> Task<void> {
    out->push_back(id);
    co_await Scheduler::Yield{};
    out->push_back(id + 10);
    co_return;
  };
  sched.Spawn(fiber(&order, 1));
  sched.Spawn(fiber(&order, 2));
  sched.Poll();  // both run to their yield
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  sched.Poll();  // both resume
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
  EXPECT_EQ(sched.NumLiveFibers(), 0u);
}

TEST(SchedulerTest, YieldAfterSubtaskResumesInnermost) {
  // Regression: after a blocked/yielded suspension deep in a nested task, the scheduler must
  // resume the innermost coroutine, not the fiber root.
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  auto inner = [](std::vector<int>* out) -> Task<int> {
    out->push_back(1);
    co_await Scheduler::Yield{};
    out->push_back(2);
    co_return 7;
  };
  auto outer = [&inner](std::vector<int>* out) -> Task<void> {
    int v = co_await inner(out);
    out->push_back(v);
    co_return;
  };
  sched.Spawn(outer(&order));
  sched.PollUntil([&] { return sched.NumLiveFibers() == 0; });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 7}));
}

TEST(SchedulerTest, BlockedFibersAreNotPolled) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event event;
  int progress = 0;
  sched.Spawn([](Event* e, int* p) -> Task<void> {
    (*p)++;
    co_await e->Wait();
    (*p)++;
    co_return;
  }(&event, &progress));
  sched.Poll();
  EXPECT_EQ(progress, 1);
  // Blocked: repeated polls do not resume it (the paper's "blockable coroutines").
  EXPECT_EQ(sched.Poll(), 0u);
  EXPECT_EQ(sched.Poll(), 0u);
  EXPECT_EQ(progress, 1);
  event.Notify();
  sched.Poll();
  EXPECT_EQ(progress, 2);
  EXPECT_EQ(sched.NumLiveFibers(), 0u);
}

TEST(SchedulerTest, EventWakesAllWaiters) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event event;
  int woken = 0;
  for (int i = 0; i < 5; i++) {
    sched.Spawn([](Event* e, int* w) -> Task<void> {
      co_await e->Wait();
      (*w)++;
      co_return;
    }(&event, &woken));
  }
  sched.Poll();
  EXPECT_EQ(woken, 0);
  EXPECT_TRUE(event.HasWaiters());
  event.Notify();
  sched.Poll();
  EXPECT_EQ(woken, 5);
}

TEST(SchedulerTest, SleepBlocksUntilDeadline) {
  VirtualClock clock;
  Scheduler sched(clock);
  bool done = false;
  sched.Spawn([](Scheduler* s, bool* flag) -> Task<void> {
    co_await s->Sleep(1000);
    *flag = true;
    co_return;
  }(&sched, &done));
  sched.Poll();
  EXPECT_FALSE(done);
  EXPECT_EQ(sched.NextTimerDeadline(), 1000u);
  clock.Advance(999);
  sched.Poll();
  EXPECT_FALSE(done);
  clock.Advance(1);
  sched.Poll();
  EXPECT_TRUE(done);
}

// PollUntil on a VirtualClock must step virtual time to the next timer deadline when only
// timers remain — otherwise a sleeping fiber live-locks the loop (nothing runnable, nothing
// advancing the clock). Pre-fix this test spun until the step budget with `done` never set.
TEST(SchedulerTest, PollUntilStepsVirtualClockToTimers) {
  VirtualClock clock;
  Scheduler sched(clock);
  bool done = false;
  sched.Spawn([](Scheduler* s, bool* flag) -> Task<void> {
    co_await s->Sleep(5 * kMillisecond);
    *flag = true;
    co_return;
  }(&sched, &done));
  EXPECT_TRUE(sched.PollUntil([&] { return done; }));
  EXPECT_GE(clock.Now(), 5 * kMillisecond);
}

// With no runnable fibers and no pending timers, PollUntil(pred) must return false rather
// than spin forever on the frozen clock.
TEST(SchedulerTest, PollUntilReturnsFalseWhenNothingCanProgress) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event never;
  sched.Spawn([](Event* e) -> Task<void> {
    co_await e->Wait();
    co_return;
  }(&never));
  EXPECT_FALSE(sched.PollUntil([] { return false; }));
}

// The timer step never overshoots an explicit PollUntil timeout: a distant timer must not
// drag the clock past the caller's deadline.
TEST(SchedulerTest, PollUntilClampsClockStepAtTimeout) {
  VirtualClock clock;
  Scheduler sched(clock);
  bool done = false;
  sched.Spawn([](Scheduler* s, bool* flag) -> Task<void> {
    co_await s->Sleep(kSecond);
    *flag = true;
    co_return;
  }(&sched, &done));
  EXPECT_FALSE(sched.PollUntil([&] { return done; }, 10 * kMillisecond));
  EXPECT_LT(clock.Now(), 20 * kMillisecond);
}

TEST(SchedulerTest, ManyFibersWakerBlocksScale) {
  // Exercise multiple waker blocks (> 64 fibers) with selective wakes.
  VirtualClock clock;
  Scheduler sched(clock);
  constexpr int kFibers = 200;
  std::vector<Event> events(kFibers);
  std::vector<int> done(kFibers, 0);
  for (int i = 0; i < kFibers; i++) {
    sched.Spawn([](Event* e, int* d) -> Task<void> {
      co_await e->Wait();
      *d = 1;
      co_return;
    }(&events[i], &done[i]));
  }
  sched.Poll();
  // Wake only fiber 130 (block 2).
  events[130].Notify();
  sched.Poll();
  EXPECT_EQ(done[130], 1);
  EXPECT_EQ(done[0], 0);
  EXPECT_EQ(done[64], 0);
  // Wake the rest.
  for (auto& e : events) {
    e.Notify();
  }
  sched.Poll();
  for (int i = 0; i < kFibers; i++) {
    EXPECT_EQ(done[i], 1) << i;
  }
  EXPECT_EQ(sched.NumLiveFibers(), 0u);
}

TEST(SchedulerTest, SlotRecyclingReusesFreedSlots) {
  VirtualClock clock;
  Scheduler sched(clock);
  auto noop = []() -> Task<void> { co_return; };
  Scheduler::FiberId first = sched.Spawn(noop());
  sched.Poll();
  Scheduler::FiberId second = sched.Spawn(noop());
  EXPECT_EQ(first, second);  // slot reused
  sched.Poll();
  EXPECT_EQ(sched.NumLiveFibers(), 0u);
}

TEST(SchedulerTest, StaleWakeOfDeadFiberIsHarmless) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event event;
  sched.Spawn([](Event* e) -> Task<void> {
    co_await e->Wait();
    co_return;
  }(&event));
  sched.Poll();
  event.Notify();
  sched.Poll();  // fiber completes and its slot frees
  EXPECT_EQ(sched.NumLiveFibers(), 0u);
  event.Notify();  // no waiters; nothing to do
  sched.Poll();
}

TEST(SchedulerTest, FiberSpawnedDuringPollRunsNextPoll) {
  VirtualClock clock;
  Scheduler sched(clock);
  int stage = 0;
  sched.Spawn([](Scheduler* s, int* out) -> Task<void> {
    *out = 1;
    s->Spawn([](int* inner_out) -> Task<void> {
      *inner_out = 2;
      co_return;
    }(out));
    co_return;
  }(&sched, &stage));
  sched.Poll();
  EXPECT_GE(stage, 1);
  sched.PollUntil([&] { return sched.NumLiveFibers() == 0; });
  EXPECT_EQ(stage, 2);
}

TEST(SchedulerTest, PollUntilHonorsTimeout) {
  VirtualClock clock;
  Scheduler sched(clock);
  // Keep a fiber yielding forever; ensure PollUntil gives up. With a VirtualClock, advance
  // time from inside the fiber.
  sched.Spawn([](VirtualClock* c) -> Task<void> {
    for (;;) {
      c->Advance(100);
      co_await Scheduler::Yield{};
    }
  }(&clock));
  bool met = sched.PollUntil([] { return false; }, /*timeout=*/10'000);
  EXPECT_FALSE(met);
}

TEST(SchedulerTest, DestructionDestroysLiveFibers) {
  // A blocked fiber must have its frame destroyed with the scheduler (no leaks under ASAN).
  VirtualClock clock;
  Event event;
  auto holder = std::make_unique<Scheduler>(clock);
  holder->Spawn([](Event* e) -> Task<void> {
    co_await e->Wait();
    co_return;
  }(&event));
  holder->Poll();
  EXPECT_EQ(holder->NumLiveFibers(), 1u);
  holder.reset();  // must not leak or crash
}

TEST(TaskTest, TaskIsLazy) {
  bool started = false;
  auto t = [](bool* out) -> Task<void> {
    *out = true;
    co_return;
  }(&started);
  EXPECT_FALSE(started);
  // Never awaited: destroying an unstarted task must be safe.
}

TEST(SchedulerTest, NumRunnableTracksReadyBits) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event event;
  sched.Spawn([](Event* e) -> Task<void> {
    co_await e->Wait();
    co_return;
  }(&event));
  EXPECT_EQ(sched.NumRunnable(), 1u);  // runnable until first poll blocks it
  sched.Poll();
  EXPECT_EQ(sched.NumRunnable(), 0u);
  event.Notify();
  EXPECT_EQ(sched.NumRunnable(), 1u);
  sched.Poll();
}

}  // namespace
}  // namespace demi
