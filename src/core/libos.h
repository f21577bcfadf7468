// LibOS: the abstract Demikernel datapath library OS (paper §5).
//
// Every concrete libOS (Catnap, Catnip, Catmint, Cattree and the network×storage integrations)
// shares this PDPIX surface and the common machinery: a poll clock with a timer wheel, a
// DMA-capable heap with UAF protection, and a qtoken table. wait/wait_any/wait_all are
// implemented here — they poll (due timers, then the libOS's fast path) until the requested
// tokens complete, which is how application threads donate cycles to the datapath OS
// (cooperative scheduling, §3.2).

#ifndef SRC_CORE_LIBOS_H_
#define SRC_CORE_LIBOS_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/core/qtoken_table.h"
#include "src/core/tenant.h"
#include "src/core/types.h"
#include "src/memory/buffer.h"
#include "src/memory/pool_allocator.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/wait_list.h"

namespace demi {

class LibOS {
 public:
  virtual ~LibOS() = default;

  LibOS(const LibOS&) = delete;
  LibOS& operator=(const LibOS&) = delete;

  // --- Queue creation and management (PDPIX libcalls, Figure 2) ---
  virtual Result<QueueDesc> Socket(SocketType type) = 0;
  [[nodiscard]] virtual Status Bind(QueueDesc qd, SocketAddress local) = 0;
  [[nodiscard]] virtual Status Listen(QueueDesc qd, int backlog) = 0;
  virtual Result<QToken> Accept(QueueDesc qd) = 0;
  virtual Result<QToken> Connect(QueueDesc qd, SocketAddress remote) = 0;
  [[nodiscard]] virtual Status Close(QueueDesc qd) = 0;

  // Storage queues (libOSes without a storage engine return kNotSupported).
  virtual Result<QueueDesc> Open(std::string_view path) { return Status::kNotSupported; }
  [[nodiscard]] virtual Status Seek(QueueDesc qd, uint64_t offset) { return Status::kNotSupported; }
  [[nodiscard]] virtual Status Truncate(QueueDesc qd, uint64_t offset) { return Status::kNotSupported; }

  // Lightweight in-memory queue (PDPIX queue(), Go-channel-like).
  virtual Result<QueueDesc> MemoryQueue() { return Status::kNotSupported; }

  // --- I/O processing ---
  // Submits a complete outgoing operation; attempts to issue it immediately (fast path).
  // Zero-copy: ownership of sga buffers passes to the libOS until the qtoken completes; with
  // UAF protection the app may even free them right away and the heap defers the recycle.
  virtual Result<QToken> Push(QueueDesc qd, const Sgarray& sga) = 0;
  virtual Result<QToken> PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) {
    return Status::kNotSupported;
  }
  // Asks for the next incoming operation; the qtoken completes with an app-owned sga.
  virtual Result<QToken> Pop(QueueDesc qd) = 0;

  // Splice: moves a stream between two queues inside the libOS with no application-visible
  // copy — pop src, push the same Buffer views into dst (sendfile, §5.3's zero-copy goal
  // applied across devices). Runs until src reports end-of-stream (TCP FIN, log tail); the
  // qtoken then completes with QResult::bytes = total payload moved. LibOSes without a
  // device pair that can splice return kNotSupported.
  virtual Result<QToken> Splice(QueueDesc src_qd, QueueDesc dst_qd) {
    return Status::kNotSupported;
  }

  // --- wait_*: PDPIX's epoll replacement (§4.2) ---
  // Blocks the calling thread, donating it to the libOS's polls, until `qt` completes.
  // timeout 0 = wait forever.
  Result<QResult> Wait(QToken qt, DurationNs timeout = 0);
  // Waits for any of `qts`; `index_out` receives the position that completed.
  Result<QResult> WaitAny(std::span<const QToken> qts, size_t* index_out,
                          DurationNs timeout = 0);
  // Waits for all tokens; results appended to `out` in token order.
  [[nodiscard]] Status WaitAll(std::span<const QToken> qts, std::vector<QResult>* out,
                 DurationNs timeout = 0);

  // The paper's full wait_any shape (Figure 2): blocks until at least one token completes,
  // then harvests EVERY completed token into `events` (with its index in `indices`). Returns
  // the number harvested, or 0 on timeout. Batch harvesting lets servers drain a burst of
  // completions in one call instead of one wakeup each.
  size_t WaitAnyHarvest(std::span<const QToken> qts, std::vector<QResult>* events,
                        std::vector<size_t>* indices, DurationNs timeout = 0);

  // Non-blocking check/claim.
  bool IsDone(QToken qt) const { return tokens_.IsDone(qt); }
  Result<QResult> TryTake(QToken qt) { return tokens_.Take(qt); }

  // --- Multi-tenancy (docs/TENANCY.md) ---
  // Registers an isolation domain: installs its memory budget on the DMA heap, publishes its
  // per-tenant labelled metrics, and gives the concrete libOS a chance to wire datapath-side
  // limits (TX token bucket, DRR weight). Tenant 0 is the control domain and not registrable.
  [[nodiscard]] Status RegisterTenant(TenantId tenant, const TenantConfig& config);
  // Assigns an existing queue (listener, connection, or UDP socket) to a tenant; every qtoken,
  // buffer, and TX frame the queue produces is charged to that domain from then on. LibOSes
  // without tenant-aware queues return kNotSupported.
  [[nodiscard]] virtual Status SetQueueTenant(QueueDesc qd, TenantId tenant) {
    return Status::kNotSupported;
  }
  TenantTable& tenants() { return tenants_; }
  const TenantTable& tenants() const { return tenants_; }

  // --- Memory (the DMA-capable heap, §5.3) ---
  void* DmaMalloc(size_t size) { return alloc_.Alloc(size); }
  // Tenant-charged allocation: fails (nullptr) once the tenant's registered budget is spent.
  void* DmaMallocFor(TenantId tenant, size_t size) { return alloc_.AllocFor(size, tenant); }
  void DmaFree(void* ptr) { alloc_.Free(ptr); }
  // Frees every segment of a popped sgarray.
  void FreeSga(Sgarray& sga) {
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      alloc_.Free(sga.segs[i].buf);
      sga.segs[i] = {};
    }
    sga.num_segs = 0;
  }

  PoolAllocator& allocator() { return alloc_; }
  Scheduler& scheduler() { return sched_; }
  Clock& clock() { return clock_; }
  QTokenTable& tokens() { return tokens_; }

  // --- Observability (docs/OBSERVABILITY.md) ---
  // Every libOS carries a metrics registry (populated at construction with scheduler, heap and
  // wait metrics; concrete libOSes add their stacks' counters) and a tracer that is wired into
  // the scheduler, the qtoken table and the device stacks but records nothing until enabled.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // Runs one poll without blocking: reads the clock and fires the timers it makes due, then
  // runs the fast path on that time. µs-scale apps call this (or wait) at least every
  // millisecond per the system model (§3.2). Returns 1, the one fast path it ran.
  size_t PollOnce() {
    // demilint: fastpath
    sched_.Poll();
    FastPath(sched_.poll_time());
    return 1;
    // demilint: end-fastpath
  }

  // Shutdown aid: polls until every issued qtoken completes (bounded rounds), then force-drains
  // whatever is left, freeing popped sga buffers so the heap stays balanced. Returns the number
  // of tokens disposed. ShardGroup calls this per shard before joining its workers so an
  // in-flight pop at stop time cannot leak its completion buffer.
  size_t DrainPendingTokens();

  // --- DemiSan thread-affinity (docs/STATIC_ANALYSIS.md) ---
  // Called by ShardGroup on the owning worker thread right after the shard's libOS is
  // constructed: tags the DMA heap and qtoken table with that thread (concrete libOSes
  // override to add their own shard-local structures) and records first-touch NUMA placement
  // into the `pool.numa_node` gauge. The inverse runs on the same thread right before it
  // exits, so post-Join control-plane inspection and teardown stay exempt. The affinity tags
  // compile to nothing without DEMI_OWNERSHIP_CHECKS; the NUMA side is live in every build.
  virtual void BindShardAffinity(int shard_id) {
    alloc_.BindShard(shard_id);
    tokens_.BindShard(shard_id);
    if (numa_gauge_ != nullptr) {
      numa_gauge_->Set(alloc_.numa_node());
    }
  }
  virtual void UnbindShardAffinity() {
    tokens_.UnbindShard();
    alloc_.UnbindShard();
  }

  // Single-process benchmarking hook: a function invoked on every wait_* polling round, used to
  // pump a peer libOS (and its server application) on the same thread. This emulates the
  // paper's two-machine topology without kernel scheduler noise — essential on small hosts
  // where two busy-polling threads would timeslice at millisecond granularity.
  void SetExternalPump(std::function<void()> pump) { external_pump_ = std::move(pump); }

  const char* name() const { return name_; }

 protected:
  LibOS(const char* name, Clock& clock, DmaRegistrar& registrar)
      : name_(name), clock_(clock), tracer_(clock), sched_(clock), alloc_(registrar) {
    InitObservability();
  }

  // Completes a qtoken, inline at submission or from the fast path.
  void CompleteToken(QToken qt, QResult result) { tokens_.Complete(qt, std::move(result)); }

  // --- Waiting for a device event (§5.2, §5.4) ---
  // An operation that must wait (a pop with no data, an accept with no connection, a connect
  // still handshaking) is a qtoken in a FIFO on its queue, not a coroutine. The queue's link
  // joins the WaitList of the event its oldest operation waits on; the event's Notify moves it
  // to this libOS's ready list, and the fast path calls ServeHookedQueues right after draining
  // its device, so the event that makes an operation ready completes it in the same poll,
  // oldest first. Catnap has no device events: every waiting queue waits on next_poll_, so
  // each retries its oldest operation once per poll. Storage ops wait the same way, on the
  // list of their log I/O (StorageQueueEngine), so every libOS waits this way.
  //
  // A libOS `OS` using this declares `friend class LibOS` and keeps its queues in
  //   std::unordered_map<QueueDesc, Q> queues_;
  // where the queue state `Q` has `bool closing` and `PendingOps pending` members, and has
  // these private members:
  //   std::optional<QResult> NextResult(Q& q, OpCode op);  op's result, nullopt while it waits
  //   WaitList& WaitEvent(Q& q, OpCode op);                 the list op waits on
  // and, if its file pushes share device writes (group commit), for CloseQueue:
  //   size_t CloseOnDevice(Q& q);  drops the ops behind the oldest that never reached a device
  //                                and returns how many of the oldest ops are on one
  struct PendingOp {
    QToken qt;
    OpCode op;
  };
  struct PendingOps {
    std::vector<PendingOp> ops;  // oldest first
    WaitLink link;               // on the oldest op's WaitEvent, or on the ready list
  };

  // PDPIX's lookup of queue `qd`: null unless it is open. A closed queue whose I/O is still on
  // a device stays in `queues_` until that I/O completes, but is gone to the application.
  template <typename OS>
  static auto* FindQueue(OS& os, QueueDesc qd) {
    auto it = os.queues_.find(qd);
    return it == os.queues_.end() || it->second.closing ? nullptr : &it->second;
  }

  // Allocates `op`'s qtoken on queue `qd` and queues it; it completes here if `q` is ready.
  template <typename OS, typename Q>
  QToken SubmitPending(OS& os, QueueDesc qd, Q& q, OpCode op, TenantId tenant = kDefaultTenant) {
    return SubmitPending(os, qd, q, PendingOp{tokens_.Allocate(op, qd, tenant), op});
  }
  // As above, for an op whose qtoken the libOS allocated (to tag the buffers it pins with it).
  template <typename OS, typename Q>
  QToken SubmitPending(OS& os, QueueDesc qd, Q& q, PendingOp op) {
    q.pending.ops.push_back(op);
    ServePending(os, qd, q);
    return op.qt;
  }

  // Close's last step, once the libOS tore down queue `qd`'s device state: sets `closing` and
  // completes the queue's ops. The oldest ops can keep waiting when their I/O is already on a
  // device (the oldest one, or several file pushes sharing one write); the ops behind them
  // never started: kCancelled. The queue then stays in `queues_`, hooked like any other, and
  // ServeHookedQueues erases it once those ops complete; with none left it goes at once.
  template <typename OS>
  void CloseQueue(OS& os, QueueDesc qd) {
    auto& q = os.queues_.find(qd)->second;
    auto& ops = q.pending.ops;
    q.closing = true;
    ServePending(os, qd, q);
    if (ops.empty()) {
      os.queues_.erase(qd);
      return;
    }
    size_t on_device = 1;
    if constexpr (requires { os.CloseOnDevice(q); }) {
      on_device = std::max<size_t>(on_device, os.CloseOnDevice(q));
    }
    for (size_t i = on_device; i < ops.size(); i++) {
      tokens_.Cancel(ops[i].qt, Status::kCancelled);
    }
    ops.resize(on_device);
  }

  // Completes `q`'s ops oldest first while NextResult yields a result; returns whether none is
  // left.
  template <typename OS, typename Q>
  bool CompleteReady(OS& os, Q& q) {
    // demilint: fastpath
    std::vector<PendingOp>& ops = q.pending.ops;
    size_t served = 0;
    for (; served < ops.size(); served++) {
      std::optional<QResult> r = os.NextResult(q, ops[served].op);
      if (!r.has_value()) {
        break;
      }
      CompleteToken(ops[served].qt, std::move(*r));
    }
    ops.erase(ops.begin(), ops.begin() + static_cast<ptrdiff_t>(served));
    return ops.empty();
    // demilint: end-fastpath
  }

  // Whether an op queued on `q` now waits behind one that reads (a pop or a splice): a file
  // push must not reach the log before such an op has read.
  template <typename Q>
  static bool QueuedBehindRead(const Q& q) {
    return !q.pending.ops.empty() && q.pending.ops.back().op != OpCode::kPush;
  }

  // Completes `q`'s ops oldest first while NextResult yields a result, then links `q` on the
  // WaitEvent of the oldest op left, unless its link is already on a list.
  template <typename OS, typename Q>
  void ServePending(OS& os, QueueDesc qd, Q& q) {
    // demilint: fastpath
    if (CompleteReady(os, q) || q.pending.link.linked()) {
      return;
    }
    os.WaitEvent(q, q.pending.ops.front().op)
        .Add(q.pending.link, ready_, static_cast<uint64_t>(qd));
    // demilint: end-fastpath
  }

  // Serves every queue on the ready list, oldest first, and erases each closed queue whose
  // last op completed.
  template <typename OS>
  void ServeHookedQueues(OS& os) {
    // demilint: fastpath
    while (WaitLink* link = ready_.PopFront()) {
      const auto qd = static_cast<QueueDesc>(link->key());
      auto& q = os.queues_.find(qd)->second;  // a queue's link goes with it
      ServePending(os, qd, q);
      if (q.closing && q.pending.ops.empty()) {
        os.queues_.erase(qd);
      }
    }
    // demilint: end-fastpath
  }

  void RunExternalPump() {
    if (external_pump_) {
      external_pump_();
    }
  }

  const char* name_;
  std::function<void()> external_pump_;
  Clock& clock_;
  // Observability members precede the scheduler: the wheel holds a pointer to the tracer.
  MetricsRegistry metrics_;
  Tracer tracer_;
  Scheduler sched_;
  PoolAllocator alloc_;
  QTokenTable tokens_;
  TenantTable tenants_;
  QueueDesc next_qd_ = 3;  // 0..2 reserved out of POSIX habit
  // The queues whose event fired, to serve next (ServeHookedQueues).
  WaitList ready_;
  // For ops that wait on no device event: notified once per poll by the fast paths that have
  // such ops (Catnap's, and Catnip's for a backlogged disk→net splice).
  WaitList next_poll_;

  // One poll of the libOS's devices on the poll's time `now`: drain the NIC, CQ or disk, then
  // complete the ops that made ready (ServeHookedQueues). Nothing it runs polls: a Notify only
  // moves queue links and completions only mark qtokens, so a poll never nests in another.
  virtual void FastPath(TimeNs now) = 0;

  // Hook for concrete libOSes to propagate a freshly registered tenant's limits into their
  // datapath (e.g. Catnip configures the NIC TX scheduler's token bucket and DRR weight).
  virtual void OnTenantRegistered(TenantId /*tenant*/, const TenantConfig& /*config*/) {}

 private:
  // Registers the common instruments (sched.*, heap.*, core.*) and wires the tracer into the
  // scheduler and qtoken table; concrete libOSes register their stacks on top.
  void InitObservability();

  Counter* wait_calls_ = nullptr;
  Counter* wait_poll_rounds_ = nullptr;
  Histogram* wait_ns_ = nullptr;
  Gauge* numa_gauge_ = nullptr;  // pool.numa_node; set by BindShardAffinity
  // The one wait_any loop behind WaitAny and WaitAnyHarvest: each round scans `qts` from a
  // rotating start and calls `on_done(i)` for every done token, whose Take therefore cannot
  // fail (returning true stops the round); returns true after the first round that found one,
  // false once the timeout passes (0 = never).
  template <typename OnDone>
  bool WaitAnyLoop(std::span<const QToken> qts, DurationNs timeout, OnDone&& on_done);

  // Rotating scan start for WaitAny/WaitAnyHarvest: scanning from index 0 every call lets a
  // busy low-index qtoken shadow completions on higher indices indefinitely.
  size_t wait_any_rr_ = 0;
};

// Converts a popped Buffer into an app-owned single-segment sgarray. The buffer must be a whole
// libOS-owned heap object (which rx-path allocations are).
inline Sgarray BufferToAppSga(Buffer&& buf) {
  Sgarray sga;
  const uint32_t len = static_cast<uint32_t>(buf.size());
  sga.num_segs = 1;
  sga.segs[0] = {buf.ReleaseToApp(), len};
  return sga;
}

}  // namespace demi

#endif  // SRC_CORE_LIBOS_H_
