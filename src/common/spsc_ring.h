// Single-producer single-consumer lock-free ring buffer.
//
// This is the transport primitive of the simulated kernel-bypass fabric: a SimNic's rx/tx queues
// are SPSC rings shared between the device (producer) and the libOS fast path (consumer),
// mirroring the descriptor rings a DPDK PMD polls. The ring is wait-free for both sides and
// safe across two threads.

#ifndef SRC_COMMON_SPSC_RING_H_
#define SRC_COMMON_SPSC_RING_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bitops.h"

namespace demi {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two; the ring holds up to `capacity` elements.
  explicit SpscRing(size_t capacity)
      : mask_(NextPowerOfTwo(capacity < 2 ? 2 : capacity) - 1), slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false if the ring is full.
  bool Push(T value) {
    // demilint: atomic(head_ is written only by this producer thread; relaxed self-read)
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_cache_;
    if (head - tail > mask_) {
      // demilint: atomic(acquire pairs with consumer's release in Pop; the slots the
      // consumer vacated are fully moved-out before we observe its new tail and reuse them)
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ > mask_) {
        return false;
      }
    }
    slots_[head & mask_] = std::move(value);
    // demilint: atomic(release publishes the slot write above; consumer's acquire of head_
    // guarantees it reads the fully-constructed element)
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Producer side, batched: moves as many of `values` into the ring as fit and publishes them
  // with a single release store — one fence per burst instead of one per element, the same
  // amortization a DPDK PMD gets from rte_ring enqueue bursts. Returns the number pushed
  // (< values.size() when the ring fills). Moved-from slots in `values` are left valid-empty.
  size_t PushBurst(std::span<T> values) {
    // demilint: atomic(head_ is written only by this producer thread; relaxed self-read)
    const uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t free_slots = mask_ + 1 - (head - tail_cache_);
    if (free_slots < values.size()) {
      // demilint: atomic(acquire pairs with consumer's release; vacated slots are safe to
      // overwrite once the refreshed tail is observed)
      tail_cache_ = tail_.load(std::memory_order_acquire);
      free_slots = mask_ + 1 - (head - tail_cache_);
    }
    const size_t n = values.size() < free_slots ? values.size() : free_slots;
    for (size_t i = 0; i < n; i++) {
      slots_[(head + i) & mask_] = std::move(values[i]);
    }
    if (n > 0) {
      // demilint: atomic(single release publishes the whole burst of slot writes above)
      head_.store(head + n, std::memory_order_release);
    }
    return n;
  }

  // Consumer side. Returns nullopt if the ring is empty.
  std::optional<T> Pop() {
    // demilint: atomic(tail_ is written only by this consumer thread; relaxed self-read)
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      // demilint: atomic(acquire pairs with producer's release in Push; the element in
      // slots_[tail] is fully constructed before we observe the new head and move from it)
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) {
        return std::nullopt;
      }
    }
    T value = std::move(slots_[tail & mask_]);
    // demilint: atomic(release publishes the moved-out slot; producer's acquire of tail_
    // guarantees it only reuses slots we have finished vacating)
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  // Consumer side, batched: pops up to `out.size()` elements, publishing the consumption with a
  // single release store. Returns the number popped (0 when empty).
  size_t PopBurst(std::span<T> out) {
    // demilint: atomic(tail_ is written only by this consumer thread; relaxed self-read)
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t available = head_cache_ - tail;
    if (available < out.size()) {
      // demilint: atomic(acquire pairs with producer's release; every element up to the
      // refreshed head is fully constructed before we move from it)
      head_cache_ = head_.load(std::memory_order_acquire);
      available = head_cache_ - tail;
    }
    const size_t n = out.size() < available ? out.size() : available;
    for (size_t i = 0; i < n; i++) {
      out[i] = std::move(slots_[(tail + i) & mask_]);
    }
    if (n > 0) {
      // demilint: atomic(single release publishes the whole burst of vacated slots)
      tail_.store(tail + n, std::memory_order_release);
    }
    return n;
  }

  // Consumer side: peeks without consuming. The reference stays valid until the next Pop.
  const T* Front() const {
    // demilint: atomic(tail_ is written only by this consumer thread; relaxed self-read)
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    // demilint: atomic(acquire pairs with producer's release so the peeked element is
    // fully constructed)
    uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) {
      return nullptr;
    }
    return &slots_[tail & mask_];
  }

  // Approximate element count; exact when called from either endpoint's own thread.
  size_t SizeApprox() const {
    // demilint: atomic(callable from either thread, so neither index is a self-read;
    // acquire on both gives a consistent-enough snapshot for an approximate count)
    const uint64_t head = head_.load(std::memory_order_acquire);
    // demilint: atomic(see head_ load above)
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<size_t>(head - tail);
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }
  size_t capacity() const { return mask_ + 1; }

 private:
  const uint64_t mask_;
  std::vector<T> slots_;
  // demilint: atomic(single-writer indices: head_ by the producer, tail_ by the consumer;
  // release/acquire pairs on them are the ring's only synchronization — slots_ itself is
  // plain memory published through these edges. 64-byte alignment keeps the two hot words
  // on separate cache lines so the sides don't false-share.)
  alignas(64) std::atomic<uint64_t> head_{0};  // written by producer
  // demilint: atomic(see head_)
  alignas(64) std::atomic<uint64_t> tail_{0};  // written by consumer
  alignas(64) uint64_t tail_cache_ = 0;        // producer-local
  alignas(64) uint64_t head_cache_ = 0;        // consumer-local
};

}  // namespace demi

#endif  // SRC_COMMON_SPSC_RING_H_
