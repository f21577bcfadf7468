#include "src/runtime/timer_wheel.h"

#include <algorithm>

#include "src/common/bitops.h"
#include "src/common/logging.h"

namespace demi {

TimerWheel::TimerWheel() { std::fill_n(&heads_[0][0], kLevels * kSlotsPerLevel, kNil); }

uint32_t TimerWheel::AllocEntry() {
  if (free_head_ != kNil) {
    const uint32_t idx = free_head_;
    free_head_ = pool_[idx].next;
    return idx;
  }
  const uint32_t idx = static_cast<uint32_t>(pool_.size());
  DEMI_CHECK_MSG(idx != kNil, "timer wheel pool exhausted");
  pool_.emplace_back();
  return idx;
}

void TimerWheel::FreeEntry(uint32_t idx) {
  Unlink(idx);
  Entry& e = pool_[idx];
  e.gen++;  // invalidate outstanding TimerIds; wrap is harmless
  e.cb = nullptr;
  e.ctx = nullptr;
  e.next = free_head_;
  free_head_ = idx;
}

uint32_t* TimerWheel::HeadOf(const Entry& e) {
  return e.level == kLevelFiring     ? &firing_head_
         : e.level == kLevelOverflow ? &overflow_head_
                                     : &heads_[e.level][e.slot];
}

void TimerWheel::LinkInto(uint32_t idx, uint8_t level, uint8_t slot) {
  Entry& e = pool_[idx];
  e.level = level;
  e.slot = slot;
  e.linked = true;
  e.prev = kNil;
  uint32_t* head = HeadOf(e);
  e.next = *head;
  if (*head != kNil) {
    pool_[*head].prev = idx;
  }
  *head = idx;
  if (level < kLevels) {
    occupancy_[level][slot >> 6] |= 1ULL << (slot & 63);
  }
}

void TimerWheel::Unlink(uint32_t idx) {
  Entry& e = pool_[idx];
  if (e.prev != kNil) {
    pool_[e.prev].next = e.next;
  } else {
    *HeadOf(e) = e.next;
  }
  if (e.next != kNil) {
    pool_[e.next].prev = e.prev;
  }
  if (e.level < kLevels && heads_[e.level][e.slot] == kNil) {
    occupancy_[e.level][e.slot >> 6] &= ~(1ULL << (e.slot & 63));
  }
  e.linked = false;
  e.next = kNil;
  e.prev = kNil;
}

void TimerWheel::Place(uint32_t idx, bool cascading) {
  Entry& e = pool_[idx];
  // A deadline at or before the cursor files into the *cursor's* L0 slot (not the slot its
  // long-gone tick once mapped to) and fires on the next Advance; placement is always
  // relative to the wheel position, not wall time.
  const uint64_t true_tick = e.deadline >> kTickShift;
  const uint64_t tick = true_tick > cur_tick_ ? true_tick : cur_tick_;
  const uint64_t delta = tick - cur_tick_;
  if (delta >= kHorizonTicks) {
    LinkInto(idx, kLevelOverflow, 0);
    work_tick_ = std::min(work_tick_, tick - kHorizonTicks + 1);
    return;
  }
  int level = 0;
  while (delta >= (1ULL << (kLevelBits * (level + 1)))) {
    level++;
  }
  const int shift = kLevelBits * level;
  const auto slot = static_cast<uint8_t>((tick >> shift) & kSlotMask);
  LinkInto(idx, static_cast<uint8_t>(level), slot);
  // The slot's window start: the entry's own tick on L0, where it cascades on L1+.
  work_tick_ = std::min(work_tick_, (tick >> shift) << shift);
  if (cascading) {
    stats_.cascades++;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kTimerWheelCascade, static_cast<uint32_t>(level), delta);
    }
  }
}

TimerId TimerWheel::Arm(TimeNs deadline, Callback cb, void* ctx, uint64_t arg) {
  DEMI_DCHECK(cb != nullptr);
  const uint32_t idx = AllocEntry();
  Entry& e = pool_[idx];
  e.deadline = deadline;
  e.cb = cb;
  e.ctx = ctx;
  e.arg = arg;
  const TimerId id = (static_cast<TimerId>(e.gen) << 32) | idx;
  Place(idx, /*cascading=*/false);
  armed_++;
  stats_.arms++;
  return id;
}

bool TimerWheel::Cancel(TimerId id) {
  if (id == kInvalidTimerId) {
    return false;
  }
  const auto idx = static_cast<uint32_t>(id & 0xFFFFFFFFU);
  if (idx >= pool_.size()) {
    return false;
  }
  Entry& e = pool_[idx];
  if (!e.linked || e.gen != static_cast<uint32_t>(id >> 32)) {
    return false;  // already fired, already cancelled, or a recycled entry: safe no-op
  }
  FreeEntry(idx);
  armed_--;
  stats_.cancels++;
  if (armed_ == 0) {
    work_tick_ = UINT64_MAX;
  }
  return true;
}

int TimerWheel::FirstOccupiedSlot(int level) const {
  // demilint: fastpath
  // Circular scan in firing order. L0 starts at the cursor slot itself (due / sub-tick-future
  // entries live there); L1+ start one past the cursor and check the cursor slot last, because
  // an L1+ entry in the cursor slot always belongs to the *next* rotation of that level.
  // Word-wise: the bits at or above `start` in its word, the other words in circular order, then
  // the bits below `start` in its word.
  const auto cur_slot = static_cast<uint32_t>((cur_tick_ >> (kLevelBits * level)) & kSlotMask);
  const uint32_t start = (level == 0 ? cur_slot : cur_slot + 1) & kSlotMask;
  const uint32_t first_word = start >> 6;
  const uint64_t at_or_above = ~0ULL << (start & 63);
  for (uint32_t i = 0; i <= kOccupancyWords; i++) {
    const uint32_t word = (first_word + i) % kOccupancyWords;
    uint64_t bits = occupancy_[level][word];
    if (i == 0) {
      bits &= at_or_above;
    } else if (i == kOccupancyWords) {
      bits &= ~at_or_above;
    }
    const int bit = LowestSetBit(bits);
    if (bit >= 0) {
      return static_cast<int>(word * 64) + bit;
    }
  }
  return -1;
  // demilint: end-fastpath
}

uint64_t TimerWheel::EarliestTickLowerBound() const {
  // demilint: fastpath
  uint64_t best = UINT64_MAX;
  for (int level = 0; level < kLevels; level++) {
    const int slot = FirstOccupiedSlot(level);
    if (slot < 0) {
      continue;
    }
    const uint64_t shift = static_cast<uint64_t>(kLevelBits) * static_cast<uint64_t>(level);
    const auto cur_slot = static_cast<uint32_t>((cur_tick_ >> shift) & kSlotMask);
    const uint64_t dist = (static_cast<uint32_t>(slot) - cur_slot) & kSlotMask;
    uint64_t tick_lb;
    if (level == 0) {
      tick_lb = cur_tick_ + dist;  // exact: L0 slots hold exactly one tick per rotation
    } else {
      // Window start; dist 0 means the cursor slot, i.e. one full rotation ahead.
      const uint64_t win = (cur_tick_ >> shift) + (dist == 0 ? kSlotsPerLevel : dist);
      tick_lb = win << shift;
    }
    best = tick_lb < best ? tick_lb : best;
  }
  for (uint32_t i = overflow_head_; i != kNil; i = pool_[i].next) {
    // The first tick at which the entry is within the horizon, where CascadeTo files it.
    const uint64_t tick = (pool_[i].deadline >> kTickShift) - kHorizonTicks + 1;
    best = tick < best ? tick : best;
  }
  return best;
  // demilint: end-fastpath
}

TimeNs TimerWheel::NextDeadline() const {
  TimeNs best = 0;
  auto consider = [&](uint32_t head) {
    for (uint32_t i = head; i != kNil; i = pool_[i].next) {
      if (best == 0 || pool_[i].deadline < best) {
        best = pool_[i].deadline;
      }
    }
  };
  // Per level, only the first occupied slot (in firing order) can hold that level's earliest
  // deadline: slot windows are disjoint and ordered, and out-of-range deadlines live in the
  // overflow list rather than mis-filed in a near slot. Exact deadlines are compared, so the
  // result is exact even though L1+ slots quantize placement.
  for (int level = 0; level < kLevels; level++) {
    const int slot = FirstOccupiedSlot(level);
    if (slot >= 0) {
      consider(heads_[level][slot]);
    }
  }
  consider(overflow_head_);
  return best;
}

size_t TimerWheel::FireCurrentSlot(TimeNs now) {
  // demilint: fastpath
  const auto slot = static_cast<uint32_t>(cur_tick_ & kSlotMask);
  size_t fired = 0;
  for (;;) {
    bool any_due = false;
    for (uint32_t i = heads_[0][slot]; i != kNil; i = pool_[i].next) {
      if (pool_[i].deadline <= now) {
        any_due = true;
        break;
      }
    }
    if (!any_due) {
      return fired;  // remaining entries (if any) are sub-tick-future: never fire early
    }
    // Detach the whole slot list into the firing batch so callbacks can Cancel() entries that
    // have not run yet this batch — Cancel unlinks from the firing list like any other.
    DEMI_DCHECK(firing_head_ == kNil);
    firing_head_ = heads_[0][slot];
    heads_[0][slot] = kNil;
    occupancy_[0][slot >> 6] &= ~(1ULL << (slot & 63));
    for (uint32_t i = firing_head_; i != kNil; i = pool_[i].next) {
      pool_[i].level = kLevelFiring;
    }
    while (firing_head_ != kNil) {
      const uint32_t idx = firing_head_;
      Entry& e = pool_[idx];
      if (e.deadline <= now) {
        const Callback cb = e.cb;
        void* ctx = e.ctx;
        const uint64_t arg = e.arg;
        FreeEntry(idx);  // free first: the callback may re-arm and reuse this entry
        armed_--;
        stats_.fires++;
        fired++;
        cb(ctx, arg);  // may Arm/Cancel reentrantly; pool_ may grow (invalidate e) here
      } else {
        Unlink(idx);
        LinkInto(idx, 0, static_cast<uint8_t>(slot));
      }
    }
    // Loop: a callback may have armed an already-due timer into this slot.
  }
  // demilint: end-fastpath
}

void TimerWheel::CascadeTo(uint64_t from_tick) {
  // demilint: fastpath
  // Only destination slots need re-filing: Advance() jumps to a lower bound of the earliest
  // pending tick, so every slot skipped over was empty.
  for (int level = kLevels - 1; level >= 1; level--) {
    const uint64_t shift = static_cast<uint64_t>(kLevelBits) * static_cast<uint64_t>(level);
    if ((cur_tick_ >> shift) == (from_tick >> shift)) {
      continue;  // this level's window did not change
    }
    const auto slot = static_cast<uint32_t>((cur_tick_ >> shift) & kSlotMask);
    uint32_t idx = heads_[level][slot];
    heads_[level][slot] = kNil;
    occupancy_[level][slot >> 6] &= ~(1ULL << (slot & 63));
    while (idx != kNil) {
      const uint32_t next = pool_[idx].next;
      pool_[idx].next = kNil;
      pool_[idx].prev = kNil;
      Place(idx, /*cascading=*/true);
      idx = next;
    }
  }
  uint32_t idx = overflow_head_;
  while (idx != kNil) {
    const uint32_t next = pool_[idx].next;
    const uint64_t tick = pool_[idx].deadline >> kTickShift;
    if (tick < cur_tick_ + kHorizonTicks) {
      Unlink(idx);
      Place(idx, /*cascading=*/true);
    }
    idx = next;
  }
  // demilint: end-fastpath
}

size_t TimerWheel::Advance(TimeNs now) {
  // demilint: fastpath
  const uint64_t target = now >> kTickShift;
  if (target < work_tick_) {
    // Nothing fires or cascades before work_tick_: only the cursor moves (never backward).
    cur_tick_ = std::max(cur_tick_, target);
    return 0;
  }
  stats_.scans++;
  size_t fired = FireCurrentSlot(now);
  for (;;) {
    const uint64_t next = EarliestTickLowerBound();
    if (cur_tick_ >= target || next > target) {
      // Every slot up to `target` is empty, so the cursor may land there without cascading.
      cur_tick_ = std::max(cur_tick_, target);
      work_tick_ = next;
      return fired;
    }
    DEMI_DCHECK(next > cur_tick_);
    const uint64_t from = cur_tick_;
    cur_tick_ = next;
    CascadeTo(from);
    fired += FireCurrentSlot(now);
  }
  // demilint: end-fastpath
}

}  // namespace demi
