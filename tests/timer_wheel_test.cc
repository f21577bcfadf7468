// Unit tests for the hierarchical timing wheel (src/runtime/timer_wheel.h): exact deadlines,
// never-early firing, cascade boundaries at every level, cancel/re-arm races from inside
// callbacks, long sleeps through the overflow list, a randomized oracle sweep, and a small-step
// oracle at poll granularity with the occupancy scan's circular edge cases.

#include "src/runtime/timer_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "src/common/clock.h"
#include "src/runtime/scheduler.h"

namespace demi {
namespace {

constexpr TimeNs kTick = 1024;  // must match TimerWheel::kTickShift

struct FireLog {
  std::vector<uint64_t> args;
  static void Record(void* ctx, uint64_t arg) { static_cast<FireLog*>(ctx)->args.push_back(arg); }
};

TEST(TimerWheel, FiresAtExactDeadlineAndNeverEarly) {
  TimerWheel wheel;
  FireLog log;
  wheel.Arm(1000, &FireLog::Record, &log, 7);
  EXPECT_EQ(wheel.NextDeadline(), 1000u);
  EXPECT_EQ(wheel.armed(), 1u);

  // 999 < deadline: same tick, but the wheel must not fire early.
  EXPECT_EQ(wheel.Advance(999), 0u);
  EXPECT_TRUE(log.args.empty());
  EXPECT_EQ(wheel.NextDeadline(), 1000u);

  EXPECT_EQ(wheel.Advance(1000), 1u);
  ASSERT_EQ(log.args.size(), 1u);
  EXPECT_EQ(log.args[0], 7u);
  EXPECT_EQ(wheel.armed(), 0u);
  EXPECT_EQ(wheel.NextDeadline(), 0u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel;
  FireLog log;
  wheel.Advance(5000);
  wheel.Arm(100, &FireLog::Record, &log, 1);  // already in the past
  EXPECT_EQ(wheel.NextDeadline(), 100u);      // reported exactly, even though overdue
  EXPECT_EQ(wheel.Advance(5000), 1u);         // clock did not move; still fires
  EXPECT_EQ(log.args.size(), 1u);
}

TEST(TimerWheel, CancelPreventsFireAndIsIdempotent) {
  TimerWheel wheel;
  FireLog log;
  const TimerId id = wheel.Arm(10 * kTick, &FireLog::Record, &log, 1);
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // double-cancel: safe no-op
  EXPECT_FALSE(wheel.Cancel(kInvalidTimerId));
  EXPECT_EQ(wheel.Advance(100 * kTick), 0u);
  EXPECT_TRUE(log.args.empty());
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, StaleIdOfRecycledEntryDoesNotCancelNewTimer) {
  TimerWheel wheel;
  FireLog log;
  const TimerId old_id = wheel.Arm(1 * kTick, &FireLog::Record, &log, 1);
  EXPECT_EQ(wheel.Advance(2 * kTick), 1u);  // fires; entry returns to the pool
  const TimerId new_id = wheel.Arm(10 * kTick, &FireLog::Record, &log, 2);
  EXPECT_NE(old_id, new_id);                // generation bumped
  EXPECT_FALSE(wheel.Cancel(old_id));       // stale handle: no-op
  EXPECT_EQ(wheel.armed(), 1u);
  EXPECT_EQ(wheel.Advance(20 * kTick), 1u);
  ASSERT_EQ(log.args.size(), 2u);
  EXPECT_EQ(log.args[1], 2u);
}

// Deadlines straddling every level boundary: 256, 256^2, and 256^3 ticks, each +/- one tick,
// plus the exact boundary. Every timer must fire at the first Advance at-or-after its
// deadline, regardless of which level it was first filed into.
TEST(TimerWheel, CascadeBoundaries) {
  for (const uint64_t boundary_ticks :
       {uint64_t{256}, uint64_t{256} * 256, uint64_t{256} * 256 * 256}) {
    for (int64_t off = -1; off <= 1; off++) {
      TimerWheel wheel;
      FireLog log;
      const TimeNs deadline = (boundary_ticks + static_cast<uint64_t>(off)) * kTick + 13;
      wheel.Arm(deadline, &FireLog::Record, &log, 99);
      EXPECT_EQ(wheel.NextDeadline(), deadline);
      EXPECT_EQ(wheel.Advance(deadline - 1), 0u) << "early fire at boundary " << boundary_ticks;
      EXPECT_EQ(wheel.NextDeadline(), deadline);
      EXPECT_EQ(wheel.Advance(deadline), 1u) << "missed fire at boundary " << boundary_ticks;
      ASSERT_EQ(log.args.size(), 1u);
    }
  }
}

// Stepping through a cascade in small increments (rather than jumping straight to the
// deadline) must also fire exactly once, exactly on time.
TEST(TimerWheel, SteppedAdvanceThroughCascade) {
  TimerWheel wheel;
  FireLog log;
  const TimeNs deadline = 300 * kTick + 500;  // L1 placement
  wheel.Arm(deadline, &FireLog::Record, &log, 1);
  TimeNs now = 0;
  size_t total = 0;
  while (now < deadline) {
    now = std::min<TimeNs>(now + 17 * kTick + 3, deadline);
    total += wheel.Advance(now);
    if (now < deadline) {
      EXPECT_EQ(total, 0u) << "fired early at now=" << now;
      EXPECT_EQ(wheel.NextDeadline(), deadline);
    }
  }
  EXPECT_EQ(total, 1u);
}

// A 30-virtual-second jump in one Advance() — the chaos soak does exactly this — must fire
// everything due without iterating ~30M empty ticks (completes instantly) and must cascade
// L2-resident timers correctly.
TEST(TimerWheel, BigJumpFiresLongSleep) {
  TimerWheel wheel;
  FireLog log;
  wheel.Arm(30 * kSecond, &FireLog::Record, &log, 42);       // ~2^24.8 ticks: L2
  wheel.Arm(10 * kMillisecond, &FireLog::Record, &log, 1);   // TIME_WAIT-sized
  EXPECT_EQ(wheel.NextDeadline(), 10 * kMillisecond);
  EXPECT_EQ(wheel.Advance(30 * kSecond), 2u);
  ASSERT_EQ(log.args.size(), 2u);
  EXPECT_EQ(log.args[0], 1u);  // earlier deadline fires first
  EXPECT_EQ(log.args[1], 42u);
  EXPECT_GT(wheel.stats().cascades, 0u);
}

// Beyond the ~73-minute wheel horizon: parked in the overflow list, still exact.
TEST(TimerWheel, BeyondHorizonSleepStaysExact) {
  TimerWheel wheel;
  FireLog log;
  const TimeNs deadline = 2 * 3600 * kSecond + 12345;  // two hours
  wheel.Arm(deadline, &FireLog::Record, &log, 5);
  EXPECT_EQ(wheel.NextDeadline(), deadline);
  EXPECT_EQ(wheel.Advance(3600 * kSecond), 0u);  // one hour in: now within horizon
  EXPECT_EQ(wheel.NextDeadline(), deadline);
  EXPECT_EQ(wheel.Advance(deadline - 1), 0u);
  EXPECT_EQ(wheel.Advance(deadline), 1u);
  ASSERT_EQ(log.args.size(), 1u);
}

struct CancelPeerCtx {
  TimerWheel* wheel = nullptr;
  TimerId peer = kInvalidTimerId;
  int fired = 0;
  static void FireAndCancelPeer(void* ctx, uint64_t arg) {
    auto* c = static_cast<CancelPeerCtx*>(ctx);
    c->fired++;
    c->wheel->Cancel(c->peer);  // peer is in the same detached firing batch
  }
};

// Two timers due in the same tick: the first callback cancels the second while it sits in the
// wheel's detached firing list. The second must not run.
TEST(TimerWheel, CallbackCancelsPeerInSameFiringBatch) {
  TimerWheel wheel;
  CancelPeerCtx ctx;
  ctx.wheel = &wheel;
  CancelPeerCtx victim;
  victim.wheel = &wheel;
  // Armed second -> sits at the head of the slot list -> runs first (LIFO within a slot).
  const TimerId victim_id =
      wheel.Arm(5 * kTick, &CancelPeerCtx::FireAndCancelPeer, &victim, 0);
  ctx.peer = victim_id;
  wheel.Arm(5 * kTick, &CancelPeerCtx::FireAndCancelPeer, &ctx, 0);
  EXPECT_EQ(wheel.Advance(10 * kTick), 1u);
  EXPECT_EQ(ctx.fired, 1);
  EXPECT_EQ(victim.fired, 0);
  EXPECT_EQ(wheel.armed(), 0u);
}

struct RearmCtx {
  TimerWheel* wheel = nullptr;
  TimerId id = kInvalidTimerId;
  DurationNs period = 0;
  TimeNs last_deadline = 0;
  int fired = 0;
  int limit = 0;
  static void Fire(void* ctx, uint64_t arg) {
    auto* c = static_cast<RearmCtx*>(ctx);
    c->fired++;
    if (c->fired < c->limit) {
      c->last_deadline += c->period;
      c->id = c->wheel->Arm(c->last_deadline, &RearmCtx::Fire, c, 0);
    }
  }
};

// A periodic timer re-arming itself from its own callback (the delayed-ack pattern): the
// freed entry is recycled immediately and each period fires exactly once.
TEST(TimerWheel, CallbackRearmsItselfPeriodically) {
  TimerWheel wheel;
  RearmCtx ctx;
  ctx.wheel = &wheel;
  ctx.period = 500 * kMicrosecond;
  ctx.last_deadline = 500 * kMicrosecond;
  ctx.limit = 20;
  ctx.id = wheel.Arm(ctx.last_deadline, &RearmCtx::Fire, &ctx, 0);
  TimeNs now = 0;
  for (int i = 0; i < 25; i++) {
    now += 500 * kMicrosecond;
    wheel.Advance(now);
  }
  EXPECT_EQ(ctx.fired, 20);
  EXPECT_EQ(wheel.armed(), 0u);
}

struct DueNowCtx {
  TimerWheel* wheel = nullptr;
  TimeNs now = 0;
  bool chained_fired = false;
  static void ArmDueNow(void* ctx, uint64_t arg) {
    auto* c = static_cast<DueNowCtx*>(ctx);
    c->wheel->Arm(c->now, &DueNowCtx::Chained, c, 0);
  }
  static void Chained(void* ctx, uint64_t arg) {
    static_cast<DueNowCtx*>(ctx)->chained_fired = true;
  }
};

// A callback arming a timer whose deadline has already passed: it still fires within the same
// Advance() call, not one poll late.
TEST(TimerWheel, CallbackArmingDueTimerFiresInSameAdvance) {
  TimerWheel wheel;
  DueNowCtx ctx;
  ctx.wheel = &wheel;
  ctx.now = 8 * kTick;
  wheel.Arm(4 * kTick, &DueNowCtx::ArmDueNow, &ctx, 0);
  EXPECT_EQ(wheel.Advance(8 * kTick), 2u);
  EXPECT_TRUE(ctx.chained_fired);
}

// Randomized oracle: 4000 timers with random deadlines across all levels (including the
// overflow horizon), random cancellations, advanced in random jumps. Every surviving timer
// must fire exactly once, at the first Advance at-or-after its deadline — compared against a
// sorted reference model.
TEST(TimerWheel, RandomizedOracleSweep) {
  std::mt19937_64 rng(0xC1Au);
  TimerWheel wheel;
  FireLog log;

  struct Expected {
    TimeNs deadline;
    uint64_t tag;
    TimerId id;
    bool cancelled;
  };
  std::vector<Expected> timers;
  std::uniform_int_distribution<TimeNs> deadline_dist(1, 3 * 3600 * kSecond);
  for (uint64_t tag = 0; tag < 4000; tag++) {
    const TimeNs d = deadline_dist(rng);
    timers.push_back({d, tag, wheel.Arm(d, &FireLog::Record, &log, tag), false});
  }
  for (size_t i = 0; i < timers.size(); i += 7) {
    timers[i].cancelled = wheel.Cancel(timers[i].id);
    EXPECT_TRUE(timers[i].cancelled);
  }

  TimeNs now = 0;
  std::uniform_int_distribution<DurationNs> jump_dist(1, 40 * kSecond);
  size_t live = 0;
  for (const Expected& t : timers) {
    live += t.cancelled ? 0 : 1;
  }
  while (wheel.armed() > 0) {
    // The wheel's own NextDeadline must match the reference min over live timers.
    TimeNs ref_next = 0;
    for (const Expected& t : timers) {
      if (!t.cancelled && t.deadline > now &&
          (ref_next == 0 || t.deadline < ref_next)) {
        ref_next = t.deadline;
      }
    }
    ASSERT_EQ(wheel.NextDeadline(), ref_next);
    now += jump_dist(rng);
    const size_t before = log.args.size();
    wheel.Advance(now);
    // Everything (and only things) with deadline <= now fired in this batch.
    size_t ref_due = 0;
    for (Expected& t : timers) {
      if (!t.cancelled && t.deadline <= now) {
        ref_due++;
        t.cancelled = true;  // consume from the reference model
      }
    }
    ASSERT_EQ(log.args.size() - before, ref_due) << "at now=" << now;
  }
  EXPECT_EQ(log.args.size(), live);
  EXPECT_EQ(wheel.stats().fires, live);
}

// Small-step oracle shaped like TCP timer use: per connection, a delayed ack (~500 us), an RTO
// (~1 ms), a TIME_WAIT (~10 ms) and a backed-off RTO (~100 ms, level 2), armed, cancelled and
// re-armed at random while the clock moves 1-3 ticks per step, the way a poll loop drives the
// wheel. Touch rates are set so every kind both fires and is cancelled. The run crosses five
// level-2 window boundaries (and so completes five level-1 rotations). After every step the
// fired set and NextDeadline() must match a reference model.
TEST(TimerWheel, SmallStepOracleTcpShaped) {
  std::mt19937_64 rng(0x7CB5u);
  TimerWheel wheel;
  FireLog log;

  struct Kind {
    DurationNs base;
    uint64_t touch_one_in;  // per step, one connection's timer of this kind is touched
  };
  constexpr Kind kKinds[] = {{500 * kMicrosecond, 32},
                             {1 * kMillisecond, 64},
                             {10 * kMillisecond, 512},
                             {100 * kMillisecond, 4096}};
  constexpr size_t kNumKinds = std::size(kKinds);
  constexpr size_t kConns = 16;
  struct Timer {
    TimeNs deadline = 0;  // 0: not armed
    TimerId id = kInvalidTimerId;
  };
  std::vector<Timer> timers(kConns * kNumKinds);  // tag = index, kind = tag % kNumKinds

  std::uniform_int_distribution<size_t> pick_conn(0, kConns - 1);
  std::uniform_int_distribution<DurationNs> jitter(0, 50 * kMicrosecond);
  std::uniform_int_distribution<DurationNs> step(1 * kTick, 3 * kTick);
  std::bernoulli_distribution rearm(0.7);  // otherwise a plain cancel

  size_t fired[kNumKinds] = {};
  size_t cancelled[kNumKinds] = {};
  const TimeNs end = 5 * 65536 * kTick + 1000 * kTick;
  TimeNs now = 0;
  while (now < end) {
    for (size_t kind = 0; kind < kNumKinds; kind++) {
      if (rng() % kKinds[kind].touch_one_in != 0) {
        continue;
      }
      const size_t tag = pick_conn(rng) * kNumKinds + kind;
      Timer& t = timers[tag];
      if (t.deadline != 0) {
        ASSERT_TRUE(wheel.Cancel(t.id));
        cancelled[kind]++;
        t = Timer{};
      }
      if (rearm(rng)) {
        t.deadline = now + kKinds[kind].base + jitter(rng);
        t.id = wheel.Arm(t.deadline, &FireLog::Record, &log, tag);
      }
    }
    now += step(rng);
    log.args.clear();
    wheel.Advance(now);

    std::vector<uint64_t> want;
    TimeNs ref_next = 0;
    for (size_t tag = 0; tag < timers.size(); tag++) {
      Timer& t = timers[tag];
      if (t.deadline == 0) {
        continue;
      }
      if (t.deadline <= now) {
        want.push_back(tag);
        fired[tag % kNumKinds]++;
        t = Timer{};  // consume from the reference model
      } else if (ref_next == 0 || t.deadline < ref_next) {
        ref_next = t.deadline;
      }
    }
    std::vector<uint64_t> got = log.args;
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "at now=" << now;
    ASSERT_EQ(wheel.NextDeadline(), ref_next) << "at now=" << now;
  }
  for (size_t kind = 0; kind < kNumKinds; kind++) {
    EXPECT_GT(fired[kind], 0u) << "kind " << kind;
    EXPECT_GT(cancelled[kind], 0u) << "kind " << kind;
  }
  EXPECT_GT(wheel.stats().cascades, 0u);
}

// Arms one timer at `deadline` with the cursor at `start`, then steps the clock by `step` and
// expects no early fire, an exact NextDeadline() throughout, and one fire at the deadline.
void ExpectFiresExactlyAt(TimeNs start, TimeNs deadline, DurationNs step) {
  TimerWheel wheel;
  FireLog log;
  wheel.Advance(start);
  wheel.Arm(deadline, &FireLog::Record, &log, 1);
  for (TimeNs now = start; now < deadline; now += step) {
    ASSERT_EQ(wheel.NextDeadline(), deadline) << "at now=" << now;
    ASSERT_EQ(wheel.Advance(now), 0u) << "early fire at now=" << now;
  }
  EXPECT_EQ(wheel.Advance(deadline - 1), 0u);
  EXPECT_EQ(wheel.Advance(deadline), 1u);
  EXPECT_EQ(log.args.size(), 1u);
  EXPECT_EQ(wheel.NextDeadline(), 0u);
}

// The occupancy scan is circular from a start slot in the middle of a 64-slot word; the only
// occupied slot lies below the start in that same word, so the scan finds it only on its
// wrap-around.
TEST(TimerWheel, OccupancyScanWrapsWithinStartWord) {
  for (const DurationNs step : {DurationNs{3 * kTick}, DurationNs{1 << 30}}) {
    // L0: cursor slot 40, timer 246 ticks ahead in slot 30.
    ExpectFiresExactlyAt(40 * kTick, (40 + 246) * kTick + 17, step);
    // L1: cursor in L1 slot 40 (the scan starts at 41), timer in L1 slot 30 of the next
    // rotation.
    ExpectFiresExactlyAt((40 * 256 + 5) * kTick, ((256 + 30) * 256 + 7) * kTick + 17, step);
  }
}

// The only occupied L1 slot is the cursor's own slot: its entry belongs to the next rotation,
// one 256-slot lap ahead, and must neither fire early nor be skipped. With a nearer L1 slot
// also occupied, that one comes first.
TEST(TimerWheel, OnlyOccupiedL1SlotIsCursorSlot) {
  const TimeNs start = (40 * 256 + 5) * kTick;
  const TimeNs next_lap = ((256 + 40) * 256) * kTick + 17;
  for (const DurationNs step : {DurationNs{3 * kTick}, DurationNs{1 << 30}}) {
    ExpectFiresExactlyAt(start, next_lap, step);
  }

  TimerWheel wheel;
  FireLog log;
  wheel.Advance(start);
  wheel.Arm(next_lap, &FireLog::Record, &log, 1);
  const TimeNs nearer = (42 * 256 + 3) * kTick;  // L1 slot 42, this lap
  wheel.Arm(nearer, &FireLog::Record, &log, 2);
  EXPECT_EQ(wheel.NextDeadline(), nearer);
  EXPECT_EQ(wheel.Advance(nearer), 1u);
  ASSERT_EQ(log.args, std::vector<uint64_t>{2});
  EXPECT_EQ(wheel.NextDeadline(), next_lap);
  EXPECT_EQ(wheel.Advance(next_lap - 1), 0u);
  EXPECT_EQ(wheel.Advance(next_lap), 1u);
}

// Scheduler integration: sleeps ride the wheel with unchanged PollUntil/VirtualClock
// semantics, and the cancellable ArmTimer/CancelTimer API works end to end.
TEST(TimerWheel, SchedulerArmCancelIntegration) {
  VirtualClock clock;
  Scheduler sched(clock);
  FireLog log;
  const TimerId keep = sched.ArmTimer(2 * kMillisecond, &FireLog::Record, &log, 1);
  const TimerId drop = sched.ArmTimer(1 * kMillisecond, &FireLog::Record, &log, 2);
  EXPECT_EQ(sched.timer_wheel().NextDeadline(), 1 * kMillisecond);
  EXPECT_TRUE(sched.CancelTimer(drop));
  EXPECT_EQ(sched.timer_wheel().NextDeadline(), 2 * kMillisecond);
  clock.AdvanceTo(2 * kMillisecond);
  sched.Poll();
  ASSERT_EQ(log.args.size(), 1u);
  EXPECT_EQ(log.args[0], 1u);
  EXPECT_FALSE(sched.CancelTimer(keep));  // already fired
  EXPECT_EQ(sched.timer_wheel().stats().fires, 1u);
}

}  // namespace
}  // namespace demi
