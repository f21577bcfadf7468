// Unit tests for the runtime: the scheduler's poll clock and timers, and wait lists.
// The timer wheel itself is covered by timer_wheel_test.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/clock.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/wait_list.h"

namespace demi {
namespace {

// Pops every link off `list`, oldest first, and returns their keys.
std::vector<uint64_t> Drain(WaitList& list) {
  std::vector<uint64_t> keys;
  while (WaitLink* link = list.PopFront()) {
    keys.push_back(link->key());
  }
  return keys;
}

TEST(WaitListTest, LinksMoveOnceToTheirReadyListAtTheNextNotify) {
  WaitList event;
  WaitList ready;
  WaitLink links[4];
  EXPECT_FALSE(links[0].linked());
  for (uint64_t i = 0; i < 3; i++) {
    event.Add(links[i], ready, i + 1);
  }
  EXPECT_TRUE(links[0].linked());
  EXPECT_TRUE(Drain(ready).empty());  // adding moves nothing

  event.Notify();
  EXPECT_TRUE(Drain(event).empty());
  EXPECT_EQ(Drain(ready), (std::vector<uint64_t>{1, 2, 3}));  // oldest first
  EXPECT_FALSE(links[0].linked());

  // A Notify with no link on the list is not remembered: a link added after it waits for the
  // following Notify.
  event.Notify();
  event.Add(links[3], ready, 4);
  EXPECT_TRUE(Drain(ready).empty());
  event.Notify();
  EXPECT_EQ(Drain(ready), (std::vector<uint64_t>{4}));

  event.Notify();  // each link moved exactly once
  EXPECT_TRUE(Drain(ready).empty());
}

// Either side may die first: a link that dies unlinks itself, from an event or from a ready
// list, and an event that dies unlinks the links still on it (checked under
// -DDEMI_SANITIZE=address).
TEST(WaitListTest, ALinkOrAListThatDiesFirstLeavesTheOtherSideWhole) {
  WaitList ready;
  WaitLink outlives_its_event;
  {
    WaitList event;
    {
      WaitLink dies_on_ready;
      WaitLink dies_on_event;
      event.Add(dies_on_ready, ready, 1);
      event.Notify();
      event.Add(dies_on_event, ready, 2);
      event.Add(outlives_its_event, ready, 3);
      EXPECT_TRUE(dies_on_ready.linked());
    }
    EXPECT_TRUE(Drain(ready).empty());
    event.Notify();
    EXPECT_EQ(Drain(ready), (std::vector<uint64_t>{3}));
    event.Add(outlives_its_event, ready, 3);
  }
  EXPECT_FALSE(outlives_its_event.linked());
  EXPECT_TRUE(Drain(ready).empty());
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
  EXPECT_EQ(sched.timer_wheel().NextDeadline(), 1000u);

  clock.Advance(999);
  sched.Poll();
  EXPECT_EQ(sched.poll_time(), 999u);
  EXPECT_EQ(seen.fires, 0);

  clock.Advance(1);
  sched.Poll();
  EXPECT_EQ(seen.fires, 1);
  EXPECT_EQ(seen.poll_time, 1000u);
  EXPECT_EQ(sched.timer_wheel().NextDeadline(), 0u);

  clock.Advance(5);  // poll_time holds the last poll's read until the next poll
  EXPECT_EQ(sched.poll_time(), 1000u);
  sched.Poll();
  EXPECT_EQ(seen.fires, 1);
  EXPECT_EQ(sched.polls(), 3u);
  EXPECT_EQ(sched.timer_wheel().stats().fires, 1u);
}

}  // namespace
}  // namespace demi
