#include "src/liboses/catnip.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/storage/partitioned_log.h"

namespace demi {

Catnip::Catnip(SimNetwork& network, const Config& config, Clock& clock)
    : Catnip(network, config, clock, ShardWiring{}) {}

Catnip::Catnip(SimNetwork& network, const Config& config, Clock& clock, const ShardWiring& shard)
    : LibOS("catnip", clock, NullDmaRegistrar::Global()),
      owned_nic_(shard.nic != nullptr ? nullptr
                                      : std::make_unique<SimNic>(network, config.mac, clock)),
      nic_(shard.nic != nullptr ? *shard.nic : *owned_nic_),
      eth_(nic_, config.ip, config.checksum_offload, config.rx_burst_frames, shard.queue_id),
      udp_(eth_, alloc_),
      tcp_(eth_, sched_, alloc_, clock, config.tcp) {
  alloc_.SetRegistrar(nic_.registrar());
  eth_.RegisterMetrics(metrics_);
  // Per-queue NIC view: each shard's registry reports only its own RSS queue pair, so an
  // aggregated rollup (ShardGroup::AggregateSnapshot) sums to the whole NIC.
  const size_t qid = shard.queue_id;
  metrics_.RegisterGauge("nic.queue_id", "index").Set(static_cast<int64_t>(qid));
  metrics_.RegisterCounter("nic.queue_rx_frames", "frames",
                           [this, qid] { return nic_.queue_stats(qid).rx_frames; });
  metrics_.RegisterCounter("nic.queue_rx_bytes", "bytes",
                           [this, qid] { return nic_.queue_stats(qid).rx_bytes; });
  metrics_.RegisterCounter("nic.queue_tx_frames", "frames",
                           [this, qid] { return nic_.queue_stats(qid).tx_frames; });
  metrics_.RegisterCounter("nic.queue_tx_bytes", "bytes",
                           [this, qid] { return nic_.queue_stats(qid).tx_bytes; });
  metrics_.RegisterCounter("net.port_lock_contention", "events",
                           [this] { return nic_.network().GetStats().port_lock_contention; });
  eth_.SetTracer(&tracer_);
  udp_.RegisterMetrics(metrics_);
  tcp_.SetObservability(&metrics_, &tracer_);
  tcp_.SetTenantTable(&tenants_);
  if (config.disk != nullptr) {
    PartitionedLog* plog = shard.plog;
    storage_ = std::make_unique<StorageQueueEngine>(
        *config.disk, sched_, alloc_, tokens_,
        plog != nullptr ? plog->partition(shard.queue_id) : LogPartition{},
        plog != nullptr ? &plog->epoch() : nullptr);
    if (plog == nullptr) {
      // Sole owner of the device: attach tracer and register the device-wide counters.
      disk_ = config.disk;
      disk_->RegisterMetrics(metrics_);
      disk_->SetTracer(&tracer_);
    } else {
      // Partitioned: the device is shared across worker threads; its tracer ring is not
      // thread-safe and ShardGroup's rollup counts the device metrics from shard 0 only.
      config.disk->RegisterMetrics(metrics_);
      // PartitionedLog::RecoverAll already scanned the media; this rebuilds the partition's
      // head/tail (the restart/recovery path).
      const Status rs = storage_->log().Recover();
      DEMI_CHECK_MSG(rs == Status::kOk, "log partition recovery failed");
      DEMI_LOG_DEBUG("catnip: recovered log partition %u, tail=%llu",
                     storage_->log().partition().id,
                     static_cast<unsigned long long>(storage_->log().tail()));
    }
    storage_->log().RegisterMetrics(metrics_);
    metrics_.RegisterCounter("splice.ops", "ops", [this] { return splice_stats_.ops; });
    metrics_.RegisterGauge("splice.active", "ops", [this] { return splice_stats_.active; });
    metrics_.RegisterCounter("splice.bytes", "bytes", [this] { return splice_stats_.bytes; });
    metrics_.RegisterCounter("splice.records", "records", [this] { return splice_stats_.records; });
    metrics_.RegisterCounter("splice.bounce_bytes", "bytes",
                             [this] { return storage_->log().stats().bounce_bytes; });
  }
  sched_.Spawn(FastPathFiber());
}

Catnip::~Catnip() {
  shutdown_ = true;
  if (disk_ != nullptr) {
    disk_->SetTracer(nullptr);  // the external device may outlive this libOS's tracer
  }
  // Destroy fiber frames first: they hold Buffers and connection references that must release
  // into a still-live heap (the base-class allocator outlives derived members but not fibers
  // destroyed by the base-class scheduler's own destructor).
  sched_.Shutdown();
  alloc_.UnregisterAll();
}

Catnip::QueueState* Catnip::Find(QueueDesc qd) {
  auto it = queues_.find(qd);
  return it == queues_.end() ? nullptr : &it->second;
}

void Catnip::OnTenantRegistered(TenantId tenant, const TenantConfig& config) {
  // Propagate the bandwidth policy to the NIC boundary: the TX scheduler enforces the token
  // bucket inline and arbitrates backlogged tenants by weighted DRR.
  eth_.tx_scheduler().Configure(tenant, config.tx_rate_bps, config.tx_burst_bytes,
                                config.tx_weight);
}

Status Catnip::SetQueueTenant(QueueDesc qd, TenantId tenant) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  q->tenant = tenant;
  switch (q->kind) {
    case QKind::kTcpListener:
      q->listener->set_tenant(tenant);  // SYNs and accepted connections inherit it
      break;
    case QKind::kTcpConn:
      q->conn->set_tenant(tenant);
      break;
    case QKind::kUdp:
      q->udp->set_tenant(tenant);
      break;
    case QKind::kTcpUnbound:
    case QKind::kFile:
    case QKind::kMemory:
      break;  // applied when the queue becomes a listener/connection; files/memory charge qtokens only
  }
  return Status::kOk;
}

bool Catnip::ShedOp(TenantId tenant) {
  if (!tenants_.ShouldShed(tenant, tokens_.InflightForTenant(tenant))) {
    return false;
  }
  tenants_.CountOpShed(tenant);
  tracer_.Record(TraceEventType::kTenantOpShed, tenant, tokens_.InflightForTenant(tenant));
  return true;
}

Task<void> Catnip::FastPathFiber() {
  uint32_t iterations = 0;
  while (!shutdown_) {
    // The poll's one clock read: the NIC burst, the TCP stack and the disk all run on it.
    const TimeNs now = sched_.poll_time();
    eth_.PollOnce(now);
    // Complete the ops this burst (or a timer fired this poll) made ready.
    ServeHookedQueues(*this);
    if (storage_ != nullptr) {
      // Catnip×Cattree: round-robin the fast path between NIC and disk completions (§5.5).
      storage_->Poll(now);
    }
    if (++iterations % kReapInterval == 0) {
      tcp_.Reap();
    }
    co_await Scheduler::Yield{};
  }
}

// --- Queue creation ---

Result<QueueDesc> Catnip::Socket(SocketType type) {
  const QueueDesc qd = NewQd();
  QueueState q;
  if (type == SocketType::kStream) {
    q.kind = QKind::kTcpUnbound;
  } else {
    auto sock = udp_.Bind(0);
    if (!sock.ok()) {
      return sock.error();
    }
    q.kind = QKind::kUdp;
    q.udp = *sock;
  }
  queues_[qd] = std::move(q);
  return qd;
}

Status Catnip::Bind(QueueDesc qd, SocketAddress local) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kUdp) {
    // Rebind the ephemeral socket onto the requested port.
    auto sock = udp_.Bind(local.port);
    if (!sock.ok()) {
      return sock.error();
    }
    udp_.Close(q->udp);
    q->udp = *sock;
    q->pending.hook_armed = false;  // the hook went with the old socket: re-arm on the new one
    ServePending(*this, qd, *q);
    return Status::kOk;
  }
  if (q->kind != QKind::kTcpUnbound) {
    return Status::kInvalidArgument;
  }
  q->bound = local;
  q->has_bound = true;
  return Status::kOk;
}

Status Catnip::Listen(QueueDesc qd, int backlog) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind != QKind::kTcpUnbound || !q->has_bound) {
    return Status::kInvalidArgument;
  }
  auto listener = tcp_.Listen(q->bound.port, static_cast<size_t>(backlog));
  if (!listener.ok()) {
    return listener.error();
  }
  q->kind = QKind::kTcpListener;
  q->listener = *listener;
  q->listener->set_tenant(q->tenant);  // a pre-listen SetQueueTenant carries over
  return Status::kOk;
}

QueueDesc Catnip::InstallConnQueue(std::shared_ptr<TcpConnection> conn) {
  const QueueDesc qd = NewQd();
  QueueState q;
  q.kind = QKind::kTcpConn;
  q.tenant = conn->tenant();  // accepted connections inherit the listener's tenant
  q.conn = std::move(conn);
  queues_[qd] = std::move(q);
  return qd;
}

Result<QToken> Catnip::Accept(QueueDesc qd) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kTcpListener) {
    return Status::kBadQueueDescriptor;
  }
  return SubmitPending(*this, qd, *q, OpCode::kAccept, q->tenant);
}

Result<QToken> Catnip::Connect(QueueDesc qd, SocketAddress remote) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kUdp) {
    // Connected-UDP: just set the default peer; completes immediately.
    q->udp_default_remote = remote;
    q->udp_connected = true;
    const QToken qt = tokens_.Allocate(OpCode::kConnect, qd, q->tenant);
    QResult r;
    r.status = Status::kOk;
    r.remote = remote;
    CompleteToken(qt, r);
    return qt;
  }
  if (q->kind != QKind::kTcpUnbound) {
    return Status::kAlreadyConnected;
  }
  auto conn = tcp_.Connect(remote);
  if (!conn.ok()) {
    return conn.error();
  }
  q->kind = QKind::kTcpConn;
  q->conn = *conn;
  q->conn->set_tenant(q->tenant);  // active opens charge the socket's tenant
  return SubmitPending(*this, qd, *q, OpCode::kConnect, q->tenant);
}

// --- Push ---

Result<QToken> Catnip::Push(QueueDesc qd, const Sgarray& sga) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (ShedOp(q->tenant)) {
    return Status::kQueueFull;  // over the tenant's inflight watermark: shed at submission
  }
  switch (q->kind) {
    case QKind::kTcpConn: {
      // Inline, run-to-completion: the stack segments and transmits as far as windows allow
      // from within this call; the qtoken completes immediately since the stack now owns
      // (references) the buffers. The qtoken is allocated before pinning so DemiSan can name
      // it as each buffer's owner.
      const QToken qt = tokens_.Allocate(OpCode::kPush, qd, q->tenant);
      Status status = Status::kOk;
      for (uint32_t i = 0; i < sga.num_segs && status == Status::kOk; i++) {
        Buffer buf = Buffer::TryFromApp(alloc_, sga.segs[i].buf, sga.segs[i].len, q->tenant);
        if (!buf.valid()) {
          status = Status::kNoMemory;  // heap exhausted or tenant budget spent: ENOMEM
          if (q->tenant != kDefaultTenant) {
            tracer_.Record(TraceEventType::kTenantMemDeny, q->tenant, sga.segs[i].len);
          }
          break;
        }
        buf.NoteOwner(qd, qt);
        status = q->conn->Push(std::move(buf));
      }
      QResult r;
      r.status = status;
      CompleteToken(qt, r);
      return qt;
    }
    case QKind::kUdp: {
      if (!q->udp_connected) {
        return Status::kNotConnected;
      }
      return PushTo(qd, sga, q->udp_default_remote);
    }
    case QKind::kFile: {
      if (storage_ == nullptr) {
        return Status::kNotSupported;
      }
      const QToken qt = tokens_.Allocate(OpCode::kPush, qd, q->tenant);
      sched_.Spawn(storage_->PushOp(qt, sga));
      return qt;
    }
    case QKind::kMemory: {
      const QToken qt = tokens_.Allocate(OpCode::kPush, qd, q->tenant);
      // Copy into a libOS-owned buffer: the channel hands ownership to the popper.
      Buffer buf = Buffer::TryAllocate(alloc_, sga.TotalBytes(), q->tenant);
      QResult r;
      if (!buf.valid()) {
        r.status = Status::kNoMemory;
        if (q->tenant != kDefaultTenant) {
          tracer_.Record(TraceEventType::kTenantMemDeny, q->tenant, sga.TotalBytes());
        }
        CompleteToken(qt, r);
        return qt;
      }
      buf.NoteOwner(qd, qt);
      size_t off = 0;
      for (uint32_t i = 0; i < sga.num_segs; i++) {
        std::memcpy(buf.mutable_data() + off, sga.segs[i].buf, sga.segs[i].len);
        off += sga.segs[i].len;
      }
      q->mem->items.push_back(std::move(buf));
      q->mem->readable.Notify();
      r.status = Status::kOk;
      CompleteToken(qt, r);
      return qt;
    }
    default:
      return Status::kNotConnected;
  }
}

Result<QToken> Catnip::PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind != QKind::kUdp) {
    return Status::kNotSupported;
  }
  if (ShedOp(q->tenant)) {
    return Status::kQueueFull;
  }
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd, q->tenant);
  Status status;
  if (sga.num_segs == 1) {
    // Zero-copy single segment.
    Buffer buf = Buffer::TryFromApp(alloc_, sga.segs[0].buf, sga.segs[0].len, q->tenant);
    if (!buf.valid()) {
      status = Status::kNoMemory;
      if (q->tenant != kDefaultTenant) {
        tracer_.Record(TraceEventType::kTenantMemDeny, q->tenant, sga.segs[0].len);
      }
    } else {
      buf.NoteOwner(qd, qt);
      if (buf.size() >= PoolAllocator::kZeroCopyThreshold) {
        buf.Rkey();
      }
      status = udp_.SendTo(*q->udp, to, buf);
    }
  } else {
    Buffer buf = Buffer::TryAllocate(alloc_, sga.TotalBytes(), q->tenant);
    if (!buf.valid()) {
      status = Status::kNoMemory;
      if (q->tenant != kDefaultTenant) {
        tracer_.Record(TraceEventType::kTenantMemDeny, q->tenant, sga.TotalBytes());
      }
    } else {
      buf.NoteOwner(qd, qt);
      size_t off = 0;
      for (uint32_t i = 0; i < sga.num_segs; i++) {
        std::memcpy(buf.mutable_data() + off, sga.segs[i].buf, sga.segs[i].len);
        off += sga.segs[i].len;
      }
      if (buf.size() >= PoolAllocator::kZeroCopyThreshold) {
        buf.Rkey();
      }
      status = udp_.SendTo(*q->udp, to, buf);
    }
  }
  QResult r;
  r.status = status;
  CompleteToken(qt, r);
  return qt;
}

// --- Pop ---

Result<QToken> Catnip::Pop(QueueDesc qd) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (ShedOp(q->tenant)) {
    return Status::kQueueFull;  // over the tenant's inflight watermark: shed at submission
  }
  switch (q->kind) {
    case QKind::kTcpConn:
    case QKind::kUdp:
    case QKind::kMemory:
      return SubmitPending(*this, qd, *q, OpCode::kPop, q->tenant);
    case QKind::kFile: {
      if (storage_ == nullptr) {
        return Status::kNotSupported;
      }
      const QToken qt = tokens_.Allocate(OpCode::kPop, qd, q->tenant);
      storage_->Pop(q->file, qt);
      return qt;
    }
    default:
      return Status::kNotConnected;
  }
}

// --- Waiting ops (LibOS::PendingOps) ---

std::optional<QResult> Catnip::NextResult(QueueState& q, OpCode op) {
  // demilint: fastpath
  QResult r;
  if (q.closing && q.kind != QKind::kMemory) {
    r.status = Status::kCancelled;
    return r;
  }
  if (op == OpCode::kAccept) {
    std::shared_ptr<TcpConnection> conn = q.listener->Accept();
    if (conn == nullptr) {
      return std::nullopt;
    }
    r.remote = conn->remote();
    r.new_qd = InstallConnQueue(std::move(conn));
    return r;
  }
  if (op == OpCode::kConnect) {
    const TcpState state = q.conn->state();
    if (state == TcpState::kEstablished) {
      r.remote = q.conn->remote();
      return r;
    }
    if (state == TcpState::kClosed) {
      r.status = q.conn->error();
      return r;
    }
    return std::nullopt;
  }
  switch (q.kind) {
    case QKind::kTcpConn: {
      TcpConnection& conn = *q.conn;
      r.remote = conn.remote();
      if (conn.HasReadyData()) {
        // Drain up to a full scatter-gather array per pop: cuts per-segment qtoken costs for
        // bulk streams while staying one op per message for request/response traffic.
        while (r.sga.num_segs < kSgaMaxSegments && conn.HasReadyData()) {
          std::optional<Buffer> data = conn.PopData();
          const uint32_t len = static_cast<uint32_t>(data->size());
          r.sga.segs[r.sga.num_segs++] = {data->ReleaseToApp(), len};
        }
        return r;
      }
      if (conn.EndOfStream()) {
        r.status = Status::kEndOfFile;
        return r;
      }
      if (conn.state() == TcpState::kClosed) {
        r.status = conn.error() == Status::kOk ? Status::kEndOfFile : conn.error();
        return r;
      }
      return std::nullopt;
    }
    case QKind::kUdp: {
      std::optional<UdpStack::Datagram> d = q.udp->PopDatagram();
      if (!d.has_value()) {
        return std::nullopt;
      }
      r.remote = d->src;
      r.sga = BufferToAppSga(std::move(d->payload));
      return r;
    }
    case QKind::kMemory: {
      if (!q.mem->items.empty()) {
        r.sga = BufferToAppSga(std::move(q.mem->items.front()));
        q.mem->items.pop_front();
        return r;
      }
      if (q.closing) {
        r.status = Status::kEndOfFile;
        return r;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;  // no other kind queues ops here
  }
  // demilint: end-fastpath
}

Event& Catnip::WaitEvent(QueueState& q, OpCode op) {
  // demilint: fastpath
  if (op == OpCode::kAccept) {
    return q.listener->acceptable();
  }
  if (op == OpCode::kConnect) {
    return q.conn->established_event();
  }
  return q.kind == QKind::kTcpConn ? q.conn->readable()
         : q.kind == QKind::kUdp   ? q.udp->readable()
                                   : q.mem->readable;
  // demilint: end-fastpath
}

// --- Splice (docs/STORAGE.md) ---

Result<QToken> Catnip::Splice(QueueDesc src_qd, QueueDesc dst_qd) {
  QueueState* src = Find(src_qd);
  QueueState* dst = Find(dst_qd);
  if (src == nullptr || dst == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (storage_ == nullptr) {
    return Status::kNotSupported;  // splice needs the integrated Catnip×Cattree build
  }
  if (ShedOp(src->tenant)) {
    return Status::kQueueFull;
  }
  if (src->kind == QKind::kTcpConn && dst->kind == QKind::kFile) {
    const QToken qt = tokens_.Allocate(OpCode::kSplice, src_qd, src->tenant);
    tracer_.Record(TraceEventType::kSpliceStart, static_cast<uint32_t>(src_qd),
                   static_cast<uint64_t>(dst_qd));
    splice_stats_.active++;
    auto st = std::make_shared<SpliceState>();
    sched_.Spawn(SpliceAppendFiber(st));
    sched_.Spawn(SpliceNetToDiskOp(src_qd, qt, src->conn, std::move(st)));
    return qt;
  }
  if (src->kind == QKind::kFile && dst->kind == QKind::kTcpConn) {
    const QToken qt = tokens_.Allocate(OpCode::kSplice, src_qd, src->tenant);
    tracer_.Record(TraceEventType::kSpliceStart, static_cast<uint32_t>(src_qd),
                   static_cast<uint64_t>(dst_qd));
    splice_stats_.active++;
    sched_.Spawn(SpliceDiskToNetOp(src_qd, qt, dst->conn, src->file->cursor));
    return qt;
  }
  return Status::kNotSupported;  // only (TCP connection, file) pairs can splice
}

// Producer half of a TCP→disk splice: drains ready views off the connection into bounded
// batches and hands them to the appender. Never copies — the batch holds references to the
// same heap objects the NIC delivered into.
Task<void> Catnip::SpliceNetToDiskOp(QueueDesc src_qd, QToken qt,
                                     std::shared_ptr<TcpConnection> conn,
                                     std::shared_ptr<SpliceState> st) {
  for (;;) {
    if (st->status != Status::kOk) {
      break;  // the appender hit a terminal disk error
    }
    if (conn->HasReadyData()) {
      SpliceBatch batch;
      while (batch.bytes < kSpliceBatchBytes && batch.views.size() < kSpliceBatchMaxSlices &&
             conn->HasReadyData()) {
        auto data = conn->PopData();
        DEMI_CHECK(data.has_value());
        data->NoteOwner(src_qd, qt);
        batch.bytes += data->size();
        batch.views.push_back(std::move(*data));
      }
      while (st->batches.size() >= kSpliceMaxQueuedBatches && st->status == Status::kOk) {
        co_await st->batch_space.Wait();  // pipeline full: let the appender drain
      }
      if (st->status != Status::kOk) {
        break;
      }
      tracer_.Record(TraceEventType::kSpliceBatch, static_cast<uint32_t>(batch.views.size()),
                     batch.bytes);
      st->batches.push_back(std::move(batch));
      st->batch_ready.Notify();
      continue;
    }
    if (conn->EndOfStream()) {
      break;  // FIN received and every byte consumed: clean end of the splice
    }
    if (conn->state() == TcpState::kClosed) {
      if (st->status == Status::kOk && conn->error() != Status::kOk) {
        st->status = conn->error();
      }
      break;
    }
    co_await conn->readable().Wait();
  }
  st->producer_done = true;
  st->batch_ready.Notify();
  while (!st->appender_done) {
    co_await st->appender_finished.Wait();
  }
  splice_stats_.ops++;
  splice_stats_.active--;
  tracer_.Record(TraceEventType::kSpliceDone, st->status == Status::kOk ? 0 : 1, st->bytes);
  QResult r;
  r.status = st->status;
  r.bytes = st->bytes;
  CompleteToken(qt, r);
}

// Consumer half: gather-appends each batch as one log record. While this coroutine awaits the
// device, the producer keeps popping the connection — the pipelining that overlaps disk
// latency with transmission.
Task<void> Catnip::SpliceAppendFiber(std::shared_ptr<SpliceState> st) {
  while (!(st->batches.empty() && st->producer_done)) {
    if (st->batches.empty()) {
      co_await st->batch_ready.Wait();
      continue;
    }
    SpliceBatch batch = std::move(st->batches.front());
    st->batches.pop_front();
    st->batch_space.Notify();
    if (st->status != Status::kOk) {
      continue;  // drain (and release) remaining batches after a terminal error
    }
    std::vector<std::span<const uint8_t>> slices;
    slices.reserve(batch.views.size());
    for (const Buffer& b : batch.views) {
      slices.emplace_back(b.data(), b.size());
    }
    auto result = co_await storage_->log().AppendSg(slices);
    if (!result.ok()) {
      st->status = result.error();
      st->batch_space.Notify();  // wake a producer parked on the full pipeline
    } else {
      st->bytes += batch.bytes;
      st->records++;
      splice_stats_.bytes += batch.bytes;
      splice_stats_.records++;
    }
    // batch.views destruct here: the TCP rx buffers release only after the record is durable.
  }
  st->appender_done = true;
  st->appender_finished.Notify();
}

// disk→net: read each record into one pooled allocation and push the payload view into the
// connection; the NIC transmits straight from log-read memory. Backpressure bounds the send
// backlog so a slow receiver cannot balloon the heap.
Task<void> Catnip::SpliceDiskToNetOp(QueueDesc src_qd, QToken qt,
                                     std::shared_ptr<TcpConnection> conn, uint64_t cursor) {
  Status status = Status::kOk;
  uint64_t total = 0;
  uint64_t records = 0;
  for (;;) {
    auto result = co_await storage_->log().Read(cursor, alloc_);
    if (!result.ok()) {
      if (result.error() != Status::kEndOfFile) {
        status = result.error();  // reaching the tail is the clean end of the splice
      }
      break;
    }
    cursor = result->next_cursor;
    const uint64_t len = result->payload.size();
    while (conn->SendBacklogBytes() > kSpliceTxHighWater &&
           conn->state() == TcpState::kEstablished) {
      co_await Scheduler::Yield{};
    }
    if (conn->state() == TcpState::kClosed) {
      status = conn->error() == Status::kOk ? Status::kConnectionReset : conn->error();
      break;
    }
    result->payload.NoteOwner(src_qd, qt);
    tracer_.Record(TraceEventType::kSpliceBatch, 1, len);
    const Status push = conn->Push(std::move(result->payload));
    if (push != Status::kOk) {
      status = push;
      break;
    }
    total += len;
    records++;
  }
  QueueState* q = Find(src_qd);
  if (q != nullptr && q->kind == QKind::kFile) {
    q->file->cursor = cursor;  // the next pop/splice on this queue resumes where we stopped
  }
  splice_stats_.ops++;
  splice_stats_.active--;
  splice_stats_.bytes += total;
  splice_stats_.records += records;
  tracer_.Record(TraceEventType::kSpliceDone, status == Status::kOk ? 0 : 1, total);
  QResult r;
  r.status = status;
  r.bytes = total;
  CompleteToken(qt, r);
}

// --- Storage and memory queues ---

Result<QueueDesc> Catnip::Open(std::string_view path) {
  if (storage_ == nullptr) {
    return Status::kNotSupported;
  }
  const QueueDesc qd = NewQd();
  QueueState q;
  q.kind = QKind::kFile;
  q.file = storage_->OpenFile();
  queues_[qd] = std::move(q);
  return qd;
}

Status Catnip::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  return storage_->Seek(*q->file, offset);
}

Status Catnip::Truncate(QueueDesc qd, uint64_t offset) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  return storage_->Truncate(offset);
}

Result<QueueDesc> Catnip::MemoryQueue() {
  const QueueDesc qd = NewQd();
  QueueState q;
  q.kind = QKind::kMemory;
  q.mem = std::make_unique<MemChannel>();
  queues_[qd] = std::move(q);
  return qd;
}

// --- Close ---

Status Catnip::Close(QueueDesc qd) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  // Pending ops complete now: a memory queue's pops with its remaining items and then
  // kEndOfFile, every other op with kCancelled. Nothing else refers to the queue afterwards,
  // so it is torn down here.
  q->closing = true;
  ServePending(*this, qd, *q);
  switch (q->kind) {
    case QKind::kTcpConn:
      // Like POSIX close(): teardown proceeds whatever the connection's fate, so a close on an
      // already-reset connection (which reports the stored error) is not surfaced to the app.
      (void)q->conn->Close();
      q->conn->ReleaseByApp();
      break;
    case QKind::kTcpListener:
      tcp_.CloseListener(q->listener);
      break;
    case QKind::kUdp:
      udp_.Close(q->udp);
      break;
    case QKind::kFile:
      storage_->Close(*q->file);
      break;
    default:
      break;
  }
  queues_.erase(qd);
  return Status::kOk;
}

}  // namespace demi
