// Hierarchical timing wheel (Varghese & Lauck) for O(1) timer arm/cancel at
// million-connection scale (docs/SCALING.md).
//
// A heap would cost O(log n) per arm and keep each satisfied TCP retransmit, delayed-ack and
// TIME_WAIT timer until its deadline: tens of millions of dead entries at ~1M connections.
//
//   - 4 levels x 256 slots, tick = 1024 ns (kTickShift = 10). Level L spans 256^(L+1) ticks,
//     so the wheel covers 2^32 ticks ~= 73 minutes; deadlines beyond that sit in a small
//     overflow list until they come into range.
//   - Arm/Cancel are O(1): entries are pooled (index-linked doubly-linked slot lists, no
//     per-timer allocation after pool warm-up) and ids carry a generation counter so a stale
//     cancel of a recycled entry is a safe no-op.
//   - Advance(now) is O(events), not O(ticks): per-level occupancy bitmaps, scanned a 64-bit
//     word at a time, give the earliest occupied slot, and the cursor teleports between
//     occupied ticks. Virtual-clock tests jump tens of seconds in one step; nothing iterates
//     10M empty ticks.
//   - Timers never fire early. The tick quantizes *placement*, not the deadline: each entry
//     keeps its exact nanosecond deadline, NextDeadline() reports it exactly (stepped-mode
//     tests advance a VirtualClock to precisely that instant), and a sub-tick-future entry
//     stays parked until Advance() is called with now >= deadline.
//
// Callbacks are plain function pointers (no std::function allocation). A callback may re-arm
// itself, arm other timers, or cancel timers — including ones already detached into the firing
// batch of the current Advance().
//
// Single-threaded like the scheduler that owns it; see docs/SCALING.md for the level/tick math.

#ifndef SRC_RUNTIME_TIMER_WHEEL_H_
#define SRC_RUNTIME_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/clock.h"
#include "src/observability/trace.h"

namespace demi {

// Handle for one armed timer: (generation << 32) | pool index. Generations start at 1, so a
// valid id is never 0 and kInvalidTimerId can double as "no timer armed" in per-connection
// state without a separate flag.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimerId = 0;

class TimerWheel {  // demilint: shard-local
 public:
  using Callback = void (*)(void* ctx, uint64_t arg);

  TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Registers `cb(ctx, arg)` to run at the first Advance(now) with now >= deadline.
  // A deadline at or before the current position fires on the next Advance. O(1).
  TimerId Arm(TimeNs deadline, Callback cb, void* ctx, uint64_t arg);

  // Cancels a pending timer. Returns false (harmlessly) if the timer already fired, was
  // already cancelled, or `id` is kInvalidTimerId. O(1).
  bool Cancel(TimerId id);

  // Fires every pending timer with deadline <= now and moves the wheel position to now's
  // tick, cascading higher-level slots as their windows open. Returns the number of timers
  // fired. Cost is proportional to timers fired/cascaded, not to elapsed ticks.
  size_t Advance(TimeNs now);

  // Exact earliest pending deadline (may be in the past if armed-but-unfired), or 0 if no
  // timers are pending. Scans one slot list per level plus the overflow list.
  TimeNs NextDeadline() const;

  // Live armed timers.
  size_t armed() const { return armed_; }

  // Cumulative counters, exported as `timerwheel.*` (docs/OBSERVABILITY.md).
  struct Stats {
    uint64_t arms = 0;      // successful Arm() calls
    uint64_t fires = 0;     // callbacks invoked
    uint64_t cancels = 0;   // Cancel() calls that removed a pending timer
    uint64_t cascades = 0;  // entries re-filed from a higher level (or overflow) downward
  };
  const Stats& stats() const { return stats_; }

  // Emits kTimerWheelCascade events; nullptr detaches. Must outlive the wheel.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr int kTickShift = 10;  // 1 tick = 1024 ns
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 4;
  static constexpr uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr uint32_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr uint32_t kOccupancyWords = kSlotsPerLevel / 64;
  // Where an entry is filed when not in a wheel slot.
  static constexpr uint8_t kLevelFiring = 0xFF;    // detached into the current firing batch
  static constexpr uint8_t kLevelOverflow = 0xFE;  // deadline beyond the wheel horizon

  struct Entry {
    TimeNs deadline = 0;
    Callback cb = nullptr;
    void* ctx = nullptr;
    uint64_t arg = 0;
    uint32_t next = kNil;  // pool indices, not pointers: the pool vector may reallocate
    uint32_t prev = kNil;
    uint32_t gen = 1;
    uint8_t level = 0;
    uint8_t slot = 0;
    bool linked = false;
  };

  uint32_t AllocEntry();
  void FreeEntry(uint32_t idx);  // unlinks the entry and returns it to the pool
  uint32_t* HeadOf(const Entry& e);
  void LinkInto(uint32_t idx, uint8_t level, uint8_t slot);
  void Unlink(uint32_t idx);
  // Files entry `idx` (already unlinked) into the slot matching its deadline, relative to the
  // current cursor. `cascading` selects stats/trace accounting.
  void Place(uint32_t idx, bool cascading);
  // Detaches the current L0 slot and runs every entry with deadline <= now; sub-tick-future
  // entries are re-parked in place. Loops until a pass fires nothing, so a callback that arms
  // an already-due timer still fires within this Advance.
  size_t FireCurrentSlot(TimeNs now);
  // Re-files the destination slot of every level whose window changed between `from_tick` and
  // the current cursor, plus any overflow entries that came into range.
  void CascadeTo(uint64_t from_tick);
  // First occupied slot of `level` in firing order (cursor-relative circular scan), or -1.
  int FirstOccupiedSlot(int level) const;
  // Lower bound (in ticks) on the earliest pending entry, or UINT64_MAX if none pending.
  // Exact for L0; window starts for L1+; true ticks for overflow entries.
  uint64_t EarliestTickLowerBound() const;

  std::vector<Entry> pool_;
  uint32_t free_head_ = kNil;
  size_t armed_ = 0;

  uint64_t cur_tick_ = 0;
  uint32_t heads_[kLevels][kSlotsPerLevel];  // kNil-filled by the constructor
  uint64_t occupancy_[kLevels][kOccupancyWords] = {};

  uint32_t firing_head_ = kNil;
  uint32_t overflow_head_ = kNil;

  Stats stats_;
  Tracer* tracer_ = nullptr;
};

}  // namespace demi

#endif  // SRC_RUNTIME_TIMER_WHEEL_H_
