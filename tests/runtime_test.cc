// Unit tests for the runtime: the scheduler's poll clock and timers, and Event callbacks.
// The timer wheel itself is covered by timer_wheel_test.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/clock.h"
#include "src/runtime/event.h"
#include "src/runtime/scheduler.h"

namespace demi {
namespace {

struct CallLog {
  std::vector<uint64_t> args;
  static void Record(void* ctx, uint64_t arg) { static_cast<CallLog*>(ctx)->args.push_back(arg); }
};

TEST(EventTest, CallbacksRunOnceAtTheNextNotify) {
  Event event;
  CallLog log;
  EXPECT_FALSE(event.HasWaiters());
  for (uint64_t i = 1; i <= 3; i++) {
    event.OnNotify(&CallLog::Record, &log, i);
  }
  EXPECT_TRUE(event.HasWaiters());
  EXPECT_TRUE(log.args.empty());  // registering runs nothing

  event.Notify();
  EXPECT_EQ(log.args, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(event.HasWaiters());

  // A Notify with nobody registered is not remembered: a callback registered after it waits
  // for the following Notify.
  event.Notify();
  event.OnNotify(&CallLog::Record, &log, 4);
  EXPECT_EQ(log.args.size(), 3u);
  event.Notify();
  EXPECT_EQ(log.args, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_FALSE(event.HasWaiters());

  event.Notify();  // each callback ran exactly once
  EXPECT_EQ(log.args.size(), 4u);
}

// A poll reads the clock once, keeps it as poll_time(), and fires the timers that read makes
// due; a timer callback already sees the new poll_time.
TEST(SchedulerTest, PollReadsTheClockOnceThenFiresDueTimers) {
  VirtualClock clock;
  Scheduler sched(clock);
  EXPECT_EQ(sched.poll_time(), 0u);
  struct Seen {
    Scheduler* sched;
    TimeNs poll_time = 0;
    int fires = 0;
    static void Fire(void* ctx, uint64_t /*arg*/) {
      auto* s = static_cast<Seen*>(ctx);
      s->poll_time = s->sched->poll_time();
      s->fires++;
    }
  } seen{&sched};
  sched.ArmTimer(1000, &Seen::Fire, &seen, 0);
  EXPECT_EQ(sched.NextTimerDeadline(), 1000u);

  clock.Advance(999);
  sched.Poll();
  EXPECT_EQ(sched.poll_time(), 999u);
  EXPECT_EQ(seen.fires, 0);

  clock.Advance(1);
  sched.Poll();
  EXPECT_EQ(seen.fires, 1);
  EXPECT_EQ(seen.poll_time, 1000u);
  EXPECT_EQ(sched.NextTimerDeadline(), 0u);

  clock.Advance(5);  // poll_time holds the last poll's read until the next poll
  EXPECT_EQ(sched.poll_time(), 1000u);
  sched.Poll();
  EXPECT_EQ(seen.fires, 1);
  EXPECT_EQ(sched.stats().polls, 3u);
  EXPECT_EQ(sched.stats().timer_fires, 1u);
}

}  // namespace
}  // namespace demi
