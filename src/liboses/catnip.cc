#include "src/liboses/catnip.h"

#include <array>
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
      eth_(nic_, config.ip, config.checksum_offload, shard.queue_id),
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
        *config.disk, sched_, alloc_,
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
}

Catnip::~Catnip() {
  if (disk_ != nullptr) {
    disk_->SetTracer(nullptr);  // the external device may outlive this libOS's tracer
  }
  alloc_.UnregisterAll();
}


void Catnip::OnTenantRegistered(TenantId tenant, const TenantConfig& config) {
  // Propagate the bandwidth policy to the NIC boundary: the TX scheduler enforces the token
  // bucket inline and arbitrates backlogged tenants by weighted DRR.
  eth_.tx_scheduler().Configure(tenant, config.tx_rate_bps, config.tx_burst_bytes,
                                config.tx_weight);
}

Status Catnip::SetQueueTenant(QueueDesc qd, TenantId tenant) {
  QueueState* q = FindQueue(*this, qd);
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

void Catnip::FastPath(TimeNs now) {
  // `now` is the poll's one clock read: the NIC burst, the TCP stack and the disk all run on it.
  eth_.PollOnce(now);
  if (storage_ != nullptr) {
    // Catnip×Cattree: the fast path polls NIC and disk completions in turn (§5.5).
    storage_->Poll(now);
  }
  // Complete the ops this poll's frames, disk completions or due timers made ready.
  next_poll_.Notify();
  ServeHookedQueues(*this);
  if (sched_.polls() % kReapInterval == 0) {
    tcp_.Reap();
  }
}

// --- Queue creation ---

Result<QueueDesc> Catnip::Socket(SocketType type) {
  UdpStack::Socket* udp = nullptr;
  if (type == SocketType::kDatagram) {
    auto sock = udp_.Bind(0);
    if (!sock.ok()) {
      return sock.error();
    }
    udp = *sock;
  }
  const QueueDesc qd = NewQd();
  QueueState& q = queues_[qd];
  q.kind = udp == nullptr ? QKind::kTcpUnbound : QKind::kUdp;
  q.udp = udp;
  return qd;
}

Status Catnip::Bind(QueueDesc qd, SocketAddress local) {
  QueueState* q = FindQueue(*this, qd);
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
    ServePending(*this, qd, *q);  // the old socket's list unlinked a waiting pop: wait on the new one
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
  QueueState* q = FindQueue(*this, qd);
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
  QueueState& q = queues_[qd];
  q.kind = QKind::kTcpConn;
  q.tenant = conn->tenant();  // accepted connections inherit the listener's tenant
  q.conn = std::move(conn);
  return qd;
}

Result<QToken> Catnip::Accept(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kTcpListener) {
    return Status::kBadQueueDescriptor;
  }
  return SubmitPending(*this, qd, *q, OpCode::kAccept, q->tenant);
}

Result<QToken> Catnip::Connect(QueueDesc qd, SocketAddress remote) {
  QueueState* q = FindQueue(*this, qd);
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
  QueueState* q = FindQueue(*this, qd);
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
      const QToken qt = tokens_.Allocate(OpCode::kPush, qd, q->tenant);
      storage_->PinPush(*q->file, sga, qd, qt, QueuedBehindRead(*q));
      return SubmitPending(*this, qd, *q, PendingOp{qt, OpCode::kPush});
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
  QueueState* q = FindQueue(*this, qd);
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
  QueueState* q = FindQueue(*this, qd);
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
    case QKind::kFile:
      return SubmitPending(*this, qd, *q, OpCode::kPop, q->tenant);
    default:
      return Status::kNotConnected;
  }
}

// --- Waiting ops (LibOS::PendingOps) ---

std::optional<QResult> Catnip::NextResult(QueueState& q, OpCode op) {
  // demilint: fastpath
  if (op == OpCode::kSplice) {
    return q.kind == QKind::kFile ? SpliceToNet(q) : SpliceToDisk(q);
  }
  if (q.kind == QKind::kFile) {
    return storage_->NextResult(*q.file, op, q.closing);
  }
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

WaitList& Catnip::WaitEvent(QueueState& q, OpCode op) {
  // demilint: fastpath
  if (op == OpCode::kSplice) {
    // Its log I/O; else, to disk, the connection's data; to the network, a poll that may have
    // drained the send backlog.
    SpliceState& s = *q.splice;
    if (s.io.state == LogDevice::Io::kBusy) {
      return s.io.done;
    }
    return q.kind == QKind::kFile ? next_poll_ : s.conn->readable();
  }
  if (q.kind == QKind::kFile) {
    return storage_->WaitEvent(*q.file, op);
  }
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
  QueueState* src = FindQueue(*this, src_qd);
  QueueState* dst = FindQueue(*this, dst_qd);
  if (src == nullptr || dst == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (storage_ == nullptr) {
    return Status::kNotSupported;  // splice needs the integrated Catnip×Cattree build
  }
  if (ShedOp(src->tenant)) {
    return Status::kQueueFull;
  }
  const bool to_disk = src->kind == QKind::kTcpConn && dst->kind == QKind::kFile;
  if (!to_disk && !(src->kind == QKind::kFile && dst->kind == QKind::kTcpConn)) {
    return Status::kNotSupported;  // only (TCP connection, file) pairs can splice
  }
  if (src->splice != nullptr) {
    return Status::kInvalidArgument;  // one splice at a time per queue
  }
  const QToken qt = tokens_.Allocate(OpCode::kSplice, src_qd, src->tenant);
  tracer_.Record(TraceEventType::kSpliceStart, static_cast<uint32_t>(src_qd),
                 static_cast<uint64_t>(dst_qd));
  splice_stats_.active++;
  src->splice = std::make_unique<SpliceState>(to_disk ? src->conn : dst->conn, src_qd, qt);
  return SubmitPending(*this, src_qd, *src, PendingOp{qt, OpCode::kSplice});
}

// net→disk: whenever none of its appends is in flight, the splice takes the connection's ready
// views, up to one batch, and gather-appends them as one log record — never copying them, the
// device gathers the same heap objects the NIC delivered into. The views stay in the receive
// queue, and in its window, until their record is durable; then the splice pops them. It ends
// at the end of the stream, once its last record is durable.
std::optional<QResult> Catnip::SpliceToDisk(QueueState& q) {
  SpliceState& s = *q.splice;
  TcpConnection& conn = *s.conn;
  for (;;) {
    if (s.io.state == LogDevice::Io::kBusy) {
      return std::nullopt;
    }
    if (s.io.state == LogDevice::Io::kDone) {
      s.io.state = LogDevice::Io::kIdle;
      s.result.status = s.io.status;
      for (; s.batch > 0; s.batch--) {
        const std::optional<Buffer> view = conn.PopData();
        if (s.io.status == Status::kOk) {
          s.result.bytes += view->size();
          splice_stats_.bytes += view->size();
        }
      }
      splice_stats_.records += s.io.status == Status::kOk ? 1 : 0;
    }
    if (s.result.status != Status::kOk) {
      break;  // a terminal disk error
    }
    if (q.closing) {
      s.result.status = Status::kCancelled;
      break;
    }
    if (!conn.HasReadyData()) {
      if (conn.EndOfStream()) {
        break;  // FIN received and every byte consumed: clean end of the splice
      }
      if (conn.state() == TcpState::kClosed) {
        s.result.status = conn.error();
        break;
      }
      return std::nullopt;
    }
    const std::deque<Buffer>& ready = conn.ReadyData();
    std::array<std::span<const uint8_t>, kSpliceBatchMaxSlices> slices;
    size_t bytes = 0;
    for (; bytes < kSpliceBatchBytes && s.batch < kSpliceBatchMaxSlices && s.batch < ready.size();
         s.batch++) {
      ready[s.batch].NoteOwner(s.qd, s.qt);
      slices[s.batch] = {ready[s.batch].data(), ready[s.batch].size()};
      bytes += ready[s.batch].size();
    }
    tracer_.Record(TraceEventType::kSpliceBatch, static_cast<uint32_t>(s.batch), bytes);
    storage_->log().StartAppendSg(s.io, {slices.data(), s.batch});
  }
  return FinishSplice(q);
}

// disk→net: reads one record at a time at the file cursor and pushes the payload view into the
// connection, so the NIC transmits straight from log-read memory. Backpressure bounds the send
// backlog so a slow receiver cannot balloon the heap: above kSpliceTxHighWater the next read
// waits a poll. The splice ends at the log's tail and leaves the cursor where it stopped.
std::optional<QResult> Catnip::SpliceToNet(QueueState& q) {
  SpliceState& s = *q.splice;
  TcpConnection& conn = *s.conn;
  for (;;) {
    if (s.io.state == LogDevice::Io::kBusy) {
      return std::nullopt;
    }
    if (s.io.state == LogDevice::Io::kDone) {
      s.io.state = LogDevice::Io::kIdle;
      if (s.io.status != Status::kOk) {
        if (s.io.status != Status::kEndOfFile) {
          s.result.status = s.io.status;  // reaching the tail is the clean end of the splice
        }
        break;
      }
      q.file->cursor = s.io.record.next_cursor;
      Buffer payload = std::move(s.io.record.payload);
      if (conn.state() == TcpState::kClosed) {
        s.result.status = conn.error() == Status::kOk ? Status::kConnectionReset : conn.error();
        break;
      }
      payload.NoteOwner(s.qd, s.qt);
      const uint64_t len = payload.size();
      tracer_.Record(TraceEventType::kSpliceBatch, 1, len);
      const Status push = conn.Push(std::move(payload));
      if (push != Status::kOk) {
        s.result.status = push;
        break;
      }
      s.result.bytes += len;
      splice_stats_.bytes += len;
      splice_stats_.records++;
    }
    if (q.closing) {
      s.result.status = Status::kCancelled;
      break;
    }
    if (conn.SendBacklogBytes() > kSpliceTxHighWater &&
        conn.state() == TcpState::kEstablished) {
      return std::nullopt;
    }
    storage_->log().StartRead(s.io, q.file->cursor, alloc_);
  }
  return FinishSplice(q);
}

QResult Catnip::FinishSplice(QueueState& q) {
  const std::unique_ptr<SpliceState> s = std::move(q.splice);
  splice_stats_.ops++;
  splice_stats_.active--;
  tracer_.Record(TraceEventType::kSpliceDone, s->result.status == Status::kOk ? 0 : 1,
                 s->result.bytes);
  return s->result;
}

// --- Storage and memory queues ---

Result<QueueDesc> Catnip::Open(std::string_view path) {
  if (storage_ == nullptr) {
    return Status::kNotSupported;
  }
  const QueueDesc qd = NewQd();
  QueueState& q = queues_[qd];
  q.kind = QKind::kFile;
  q.file = storage_->OpenFile();
  return qd;
}

Status Catnip::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  return storage_->Seek(*q->file, offset);
}

Status Catnip::Truncate(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  return storage_->Truncate(offset);
}

Result<QueueDesc> Catnip::MemoryQueue() {
  const QueueDesc qd = NewQd();
  QueueState& q = queues_[qd];
  q.kind = QKind::kMemory;
  q.mem = std::make_unique<MemChannel>();
  return qd;
}

// --- Close ---

Status Catnip::Close(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  // The queue is torn down here. Its pending ops complete now: a memory queue's pops with its
  // remaining items and then kEndOfFile, every other op with kCancelled, except one whose log
  // I/O is on the device, which completes once that I/O does.
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
    default:
      break;
  }
  CloseQueue(*this, qd);
  return Status::kOk;
}

}  // namespace demi
