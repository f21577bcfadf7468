// Slab allocator for TCP connection control blocks (docs/SCALING.md §3).
//
// Connections are allocated with std::allocate_shared into fixed 256-byte slots carved from
// large chunks, so one million TCBs cost exactly 256 MB-ish of arena with zero per-object
// malloc metadata and no heap fragmentation: the shared_ptr control block and the TcpConnection
// object share one slot. Freed slots go on an intrusive freelist and are reused LIFO (warm
// cache lines first).
//
// Lifetime: the allocator baked into each control block holds a shared_ptr to the arena state,
// so connection handles that outlive the TcpStack (application-held shared_ptrs) still return
// their slot to an arena that is kept alive until the last handle drops.

#ifndef SRC_NET_TCP_TCB_SLAB_H_
#define SRC_NET_TCP_TCB_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/common/affinity.h"

namespace demi {

class TcbSlab {  // demilint: shard-local
 public:
  static constexpr size_t kSlotBytes = 256;
  static constexpr size_t kSlotsPerChunk = 4096;  // 1 MB chunks

  TcbSlab() : state_(std::make_shared<State>()) {}

  // Allocates a T with shared ownership; control block and object live in one slab slot.
  template <typename T, typename... Args>
  std::shared_ptr<T> Make(Args&&... args) {
    return std::allocate_shared<T>(Alloc<T>{state_}, std::forward<Args>(args)...);
  }

  // Live slot count (allocated minus freed), i.e. connections currently backed by the slab.
  size_t live() const { return state_->live; }
  // Bytes reserved by all chunks (the slab's share of the per-connection byte budget).
  size_t ReservedBytes() const { return state_->chunks.size() * kSlotsPerChunk * kSlotBytes; }
  // Allocations that did not fit a slot and fell back to the global heap (should be zero; a
  // nonzero count means sizeof(TcpConnection) + control block outgrew kSlotBytes).
  uint64_t oversize_allocs() const { return state_->oversize; }
  uint64_t total_allocs() const { return state_->allocs; }

  // DemiSan thread-affinity (docs/STATIC_ANALYSIS.md): binds the arena to the owning worker at
  // shard spawn so a foreign thread allocating or returning a TCB slot aborts deterministically.
  // The tag lives in the shared State so slots returned through application-held connection
  // handles are checked too; ShardGroup unbinds at worker exit, so post-Join teardown on the
  // control thread is legal. Zero-cost unless built with DEMI_OWNERSHIP_CHECKS.
  void BindShard(int shard_id) { state_->affinity.Bind(shard_id); }
  void UnbindShard() { state_->affinity.Unbind(); }

 private:
  struct State {
    std::vector<std::unique_ptr<uint8_t[]>> chunks;
    void* free_head = nullptr;  // intrusive: first 8 bytes of a free slot point to the next
    // Slots of the newest chunk handed out so far. A chunk is neither zeroed nor threaded onto
    // the freelist up front, so its pages are touched only as connections claim its slots.
    size_t carved = kSlotsPerChunk;
    size_t live = 0;
    uint64_t allocs = 0;
    uint64_t oversize = 0;
    ShardAffinity affinity;  // empty (zero-cost) unless DEMI_OWNERSHIP_CHECKS

    void* AllocSlot() {
      affinity.Check("TcbSlab::AllocSlot");
      void* slot = free_head;
      if (slot != nullptr) {
        free_head = *static_cast<void**>(slot);
      } else {
        if (carved == kSlotsPerChunk) {
          chunks.push_back(std::make_unique_for_overwrite<uint8_t[]>(kSlotsPerChunk * kSlotBytes));
          carved = 0;
        }
        slot = chunks.back().get() + carved++ * kSlotBytes;
      }
      live++;
      allocs++;
      return slot;
    }

    void FreeSlot(void* slot) {
      affinity.Check("TcbSlab::FreeSlot");
      *static_cast<void**>(slot) = free_head;
      free_head = slot;
      live--;
    }
  };

  template <typename T>
  struct Alloc {
    using value_type = T;

    std::shared_ptr<State> state;

    template <typename U>
    // NOLINTNEXTLINE(google-explicit-constructor): rebind conversion must be implicit
    Alloc(const Alloc<U>& other) : state(other.state) {}
    explicit Alloc(std::shared_ptr<State> s) : state(std::move(s)) {}

    T* allocate(size_t n) {
      const size_t bytes = n * sizeof(T);
      if (bytes > kSlotBytes) {
        state->oversize++;
        state->allocs++;
        return static_cast<T*>(::operator new(bytes));
      }
      return static_cast<T*>(state->AllocSlot());
    }

    void deallocate(T* p, size_t n) {
      if (n * sizeof(T) > kSlotBytes) {
        ::operator delete(p);
        return;
      }
      state->FreeSlot(p);
    }

    friend bool operator==(const Alloc& a, const Alloc& b) { return a.state == b.state; }
  };

  template <typename U>
  friend struct Alloc;

  std::shared_ptr<State> state_;
};

}  // namespace demi

#endif  // SRC_NET_TCP_TCB_SLAB_H_
