// QTokenTable: slab of pending-operation states behind PDPIX qtokens.
//
// A qtoken encodes (slot | generation<<32): slots recycle, generations catch stale tokens.
// The paper allocates the waiting coroutine only when the application calls wait (§5.2); here
// no op gets a coroutine at all. The table entry is the one thing allocated at op submission,
// and completion happens either inline at submission or from the libOS's fast path.
//
// Lifecycle checking (docs/STATIC_ANALYSIS.md): every qtoken moves through
// alloc -> pending -> completed -> harvested, and each slot remembers the generation it most
// recently released plus whether that release came from a shutdown Drain. A stale Take or
// Complete against that remembered generation is therefore classifiable:
//   - Take of an already-harvested token   -> double-wait
//   - Take of a token released by Drain    -> harvest-after-drop
//   - Complete of a released token         -> complete-after-free
// In the default build these bump the `qtoken.lifecycle_violations` counter and the caller
// still gets kBadQToken/false (unchanged API); under DEMI_OWNERSHIP_CHECKS they abort with a
// diagnostic naming the kind, token, slot and the released op's queue. Tokens staler than one
// recycle are indistinguishable from corruption and stay plain kBadQToken (best effort).

#ifndef SRC_CORE_QTOKEN_TABLE_H_
#define SRC_CORE_QTOKEN_TABLE_H_

#include <memory>
#include <vector>

#if defined(DEMI_OWNERSHIP_CHECKS)
#include <cstdio>
#include <cstdlib>
#endif

#include "src/common/affinity.h"
#include "src/core/types.h"
#include "src/observability/trace.h"

namespace demi {

class QTokenTable {  // demilint: shard-local
 public:
  // Attaches a tracer for kQTokenIssued events (the redeem side is traced by LibOS::Wait*).
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  // DemiSan thread-affinity (docs/STATIC_ANALYSIS.md): the owning worker binds the table at
  // shard spawn; Allocate/Complete/Take then revalidate the calling thread. Zero-cost unless
  // built with DEMI_OWNERSHIP_CHECKS.
  void BindShard(int shard_id) { affinity_.Bind(shard_id); }
  void UnbindShard() { affinity_.Unbind(); }

  // Stale-token misuses detected since construction (see the lifecycle comment up top). Only
  // ever increments; exported as the `qtoken.lifecycle_violations` metric.
  uint64_t lifecycle_violations() const { return lifecycle_violations_; }

  QToken Allocate(OpCode op, QueueDesc qd, TenantId tenant = kDefaultTenant) {
    affinity_.Check("QTokenTable::Allocate");
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back(new Entry());
    }
    Entry& e = *entries_[slot];
    e.in_use = true;
    e.done = false;
    e.tenant = tenant;
    e.result = QResult{};
    e.result.opcode = op;
    e.result.qd = qd;
    // Per-tenant inflight accounting backs the load-shedding watermark. Indexed by tenant id
    // (ids are small) so the hot path is an array increment, never a hash lookup.
    if (tenant >= inflight_by_tenant_.size()) {
      inflight_by_tenant_.resize(static_cast<size_t>(tenant) + 1, 0);
    }
    inflight_by_tenant_[tenant]++;
    // Generation 0 would collide with kInvalidQToken for slot 0; start at 1.
    if (e.generation == 0) {
      e.generation = 1;
    }
    const QToken qt = (static_cast<uint64_t>(e.generation) << 32) | slot;
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kQTokenIssued, static_cast<uint32_t>(qd), qt);
    }
    return qt;
  }

  bool IsValid(QToken qt) const {
    const Entry* e = Lookup(qt);
    return e != nullptr;
  }

  bool IsDone(QToken qt) const {
    const Entry* e = Lookup(qt);
    return e != nullptr && e->done;
  }

  // Completes a pending token. Returns false if the token is stale (e.g., queue closed and the
  // token already cancelled and consumed).
  bool Complete(QToken qt, QResult result) {
    affinity_.Check("QTokenTable::Complete");
    Entry* e = Lookup(qt);
    if (e == nullptr) {
      NoteStaleOp(qt, /*is_complete=*/true);
      return false;
    }
    if (e->done) {
      return false;
    }
    // Preserve opcode/qd recorded at Allocate when the completer didn't fill them.
    if (result.opcode == OpCode::kInvalid) {
      result.opcode = e->result.opcode;
    }
    if (result.qd == kInvalidQd) {
      result.qd = e->result.qd;
    }
    e->result = result;
    e->done = true;
    return true;
  }

  // Consumes a completed token; invalidates it.
  Result<QResult> Take(QToken qt) {
    affinity_.Check("QTokenTable::Take");
    Entry* e = Lookup(qt);
    if (e == nullptr) {
      NoteStaleOp(qt, /*is_complete=*/false);
      return Status::kBadQToken;
    }
    if (!e->done) {
      return Status::kWouldBlock;
    }
    QResult result = e->result;
    Release(qt);
    return result;
  }

  // Cancels a pending token (queue closed underneath it) by completing it with `status`.
  void Cancel(QToken qt, Status status) {
    Entry* e = Lookup(qt);
    if (e != nullptr && !e->done) {
      e->result.status = status;
      e->done = true;
    }
  }

  OpCode OpOf(QToken qt) const {
    const Entry* e = Lookup(qt);
    return e == nullptr ? OpCode::kInvalid : e->result.opcode;
  }
  QueueDesc QdOf(QToken qt) const {
    const Entry* e = Lookup(qt);
    return e == nullptr ? kInvalidQd : e->result.qd;
  }

  // Issued tokens whose op is not done yet (a scan: DrainPendingTokens' shutdown loop).
  size_t NumPending() const {
    size_t n = 0;
    for (const auto& e : entries_) {
      if (e->in_use && !e->done) {
        n++;
      }
    }
    return n;
  }

  // Issued tokens not redeemed yet, done or not: every slot but the free ones.
  size_t NumInUse() const { return entries_.size() - free_.size(); }

  // Inflight (allocated, not yet consumed) qtokens charged to `tenant`. Backs the
  // load-shedding watermark (docs/TENANCY.md).
  size_t InflightForTenant(TenantId tenant) const {
    return tenant < inflight_by_tenant_.size() ? inflight_by_tenant_[tenant] : 0;
  }

  TenantId TenantOf(QToken qt) const {
    const Entry* e = Lookup(qt);
    return e == nullptr ? kDefaultTenant : e->tenant;
  }

  // Shutdown path: force-release every live slot (ShardGroup drains before joining workers so
  // an in-flight pop at stop cannot leak its slot). Completed results are handed to `dispose`
  // first so their payloads (pop sga buffers the app never saw) can be freed.
  template <typename Dispose>
  size_t Drain(Dispose&& dispose) {
    size_t drained = 0;
    for (uint32_t slot = 0; slot < entries_.size(); slot++) {
      Entry& e = *entries_[slot];
      if (!e.in_use) {
        continue;
      }
      if (e.done) {
        dispose(e.result);
      }
      ReleaseSlot(slot, /*drained=*/true);
      drained++;
    }
    return drained;
  }

 private:
  struct Entry {
    uint32_t generation = 0;
    // Lifecycle memory: the generation this slot most recently released (0 = never released)
    // and whether that release came from a shutdown Drain rather than a harvest. Lets a stale
    // Take/Complete against the previous incarnation be classified instead of just rejected.
    uint32_t last_released_gen = 0;
    bool drain_released = false;
    bool in_use = false;
    bool done = false;
    TenantId tenant = kDefaultTenant;
    QResult result;
  };

  Entry* Lookup(QToken qt) {
    const uint32_t slot = static_cast<uint32_t>(qt & 0xFFFFFFFF);
    const uint32_t gen = static_cast<uint32_t>(qt >> 32);
    if (slot >= entries_.size()) {
      return nullptr;
    }
    Entry& e = *entries_[slot];
    if (!e.in_use || e.generation != gen) {
      return nullptr;
    }
    return &e;
  }
  const Entry* Lookup(QToken qt) const { return const_cast<QTokenTable*>(this)->Lookup(qt); }

  void Release(QToken qt) { ReleaseSlot(static_cast<uint32_t>(qt & 0xFFFFFFFF)); }

  void ReleaseSlot(uint32_t slot, bool drained = false) {
    Entry& e = *entries_[slot];
    e.last_released_gen = e.generation;
    e.drain_released = drained;
    e.in_use = false;
    e.generation++;
    if (e.generation == 0) {
      e.generation = 1;
    }
    if (e.tenant < inflight_by_tenant_.size() && inflight_by_tenant_[e.tenant] > 0) {
      inflight_by_tenant_[e.tenant]--;
    }
    free_.push_back(slot);
  }

  // Classifies a Take/Complete whose token failed Lookup. Only the slot's most recently
  // released generation is classifiable (older tokens are indistinguishable from garbage and
  // stay plain kBadQToken). Default build: count and carry on; DemiSan build: abort naming the
  // kind, the token, and the queue the released op belonged to.
  void NoteStaleOp(QToken qt, bool is_complete) {
    const uint32_t slot = static_cast<uint32_t>(qt & 0xFFFFFFFF);
    const uint32_t gen = static_cast<uint32_t>(qt >> 32);
    if (slot >= entries_.size()) {
      return;
    }
    const Entry& e = *entries_[slot];
    if (e.last_released_gen == 0 || gen != e.last_released_gen) {
      return;
    }
    const char* kind = is_complete ? "complete-after-free"
                       : e.drain_released ? "harvest-after-drop"
                                          : "double-wait";
    lifecycle_violations_++;
#if defined(DEMI_OWNERSHIP_CHECKS)
    // qd/op are best-effort: ReleaseSlot never clears e.result, so they name the released op
    // unless the slot was already reallocated to a new one (then they name the new occupant).
    std::fprintf(stderr,
                 "[demi] DemiSan: qtoken lifecycle violation: %s: qt=0x%llx slot=%u gen=%u "
                 "last qd=%d op=%d shard=%d\n",
                 kind, static_cast<unsigned long long>(qt), slot, gen,
                 static_cast<int>(e.result.qd), static_cast<int>(e.result.opcode),
                 affinity_.shard_id());
    std::abort();
#else
    (void)kind;
#endif
  }

  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<uint32_t> free_;
  std::vector<size_t> inflight_by_tenant_;
  Tracer* tracer_ = nullptr;
  ShardAffinity affinity_;  // empty (zero-cost) unless DEMI_OWNERSHIP_CHECKS
  uint64_t lifecycle_violations_ = 0;
};

}  // namespace demi

#endif  // SRC_CORE_QTOKEN_TABLE_H_
