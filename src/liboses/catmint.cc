#include "src/liboses/catmint.h"

#include <cstring>

#include "src/common/logging.h"

namespace demi {

namespace {

enum MsgType : uint8_t {
  kMsgConnect = 1,
  kMsgAccept = 2,
  kMsgReject = 3,
  kMsgData = 4,
  kMsgClose = 5,
};

// Catmint's message header, carried inside every RDMA message.
struct MsgHeader {
  uint8_t type;
  uint8_t pad[3];
  uint32_t src_conn;
  uint32_t dst_conn;
  uint16_t port;
  uint8_t pad2[2];
  uint64_t ctr_addr;  // CONNECT/ACCEPT: sender's credit counter location
  uint64_t ctr_rkey;
  uint32_t payload_len;
};

}  // namespace

Catmint::Catmint(SimNetwork& network, const Config& config, Clock& clock)
    : LibOS("catmint", clock, NullDmaRegistrar::Global()),
      device_(network, config.mac, clock),
      ip_(config.ip),
      config_(config) {
  alloc_.SetRegistrar(device_.registrar());
  auto qp = device_.CreateQp(kWellKnownQp);
  DEMI_CHECK(qp.ok());
  // Pre-allocate the device-level receive pool from the DMA heap.
  const size_t slot_size = sizeof(MsgHeader) + config_.max_msg_size;
  recv_slots_.resize(config_.recv_buffers);
  for (size_t i = 0; i < recv_slots_.size(); i++) {
    recv_slots_[i].buf = alloc_.Alloc(slot_size);
    DEMI_CHECK(recv_slots_[i].buf != nullptr);
    alloc_.GetRkey(recv_slots_[i].buf);  // force registration
    free_slots_.push_back(i);
  }
  PostRecvBuffers();
  metrics_.RegisterCounter("catmint.msgs_sent", "msgs", [this] { return stats_.msgs_sent; });
  metrics_.RegisterCounter("catmint.msgs_received", "msgs",
                           [this] { return stats_.msgs_received; });
  metrics_.RegisterCounter("catmint.credit_updates_sent", "writes",
                           [this] { return stats_.credit_updates_sent; });
  metrics_.RegisterCounter("catmint.sends_blocked_on_credits", "sends",
                           [this] { return stats_.sends_blocked_on_credits; });
  metrics_.RegisterCounter("catmint.connects_rejected", "conns",
                           [this] { return stats_.connects_rejected; });
  metrics_.RegisterGauge("catmint.posted_recvs", "buffers", [this] { return posted_recvs_; });
  if (config.disk != nullptr) {
    storage_ = std::make_unique<StorageQueueEngine>(*config.disk, sched_, alloc_);
    config.disk->RegisterMetrics(metrics_);
    storage_->log().RegisterMetrics(metrics_);
  }
}

Catmint::~Catmint() {
  for (auto& slot : recv_slots_) {
    alloc_.Free(slot.buf);
  }
  alloc_.UnregisterAll();
}


void Catmint::PostRecvBuffers() {
  const size_t slot_size = sizeof(MsgHeader) + config_.max_msg_size;
  while (!free_slots_.empty()) {
    const size_t i = free_slots_.front();
    free_slots_.pop_front();
    if (device_.PostRecv(kWellKnownQp, recv_slots_[i].buf, static_cast<uint32_t>(slot_size), i) !=
        Status::kOk) {
      free_slots_.push_front(i);  // keep the slot; retry on the next poll round
      stats_.post_failures++;
      break;
    }
    posted_recvs_++;
  }
}

size_t Catmint::CreditsAvailable(const Connection& conn) const {
  const uint64_t consumed = *conn.consumed_by_peer;
  const uint64_t outstanding = conn.msgs_sent - consumed;
  return outstanding >= config_.send_window_msgs ? 0 : config_.send_window_msgs - outstanding;
}

void Catmint::SendControl(uint8_t type, MacAddr dst, uint32_t src_conn, uint32_t dst_conn,
                          uint16_t port, const Connection* conn) {
  MsgHeader hdr{};
  hdr.type = type;
  hdr.src_conn = src_conn;
  hdr.dst_conn = dst_conn;
  hdr.port = port;
  hdr.payload_len = 0;
  if (conn != nullptr && conn->consumed_by_peer != nullptr) {
    hdr.ctr_addr = reinterpret_cast<uint64_t>(conn->consumed_by_peer);
    hdr.ctr_rkey = alloc_.GetRkey(conn->consumed_by_peer);
  }
  std::span<const uint8_t> seg(reinterpret_cast<const uint8_t*>(&hdr), sizeof(hdr));
  if (device_.PostSend(kWellKnownQp, dst, kWellKnownQp, {&seg, 1}, /*wr_id=*/0) != Status::kOk) {
    stats_.post_failures++;  // control message lost; the initiator's retry resends it
  }
}

Status Catmint::SendData(Connection& conn, const Buffer& data) {
  MsgHeader hdr{};
  hdr.type = kMsgData;
  hdr.src_conn = conn.id;
  hdr.dst_conn = conn.peer_conn;
  hdr.payload_len = static_cast<uint32_t>(data.size());
  std::span<const uint8_t> segs[2] = {
      {reinterpret_cast<const uint8_t*>(&hdr), sizeof(hdr)},
      {data.data(), data.size()},
  };
  const Status s = device_.PostSend(kWellKnownQp, conn.peer_mac, kWellKnownQp,
                                    std::span<const std::span<const uint8_t>>(segs, 2), 0);
  if (s == Status::kOk) {
    conn.msgs_sent++;
    stats_.msgs_sent++;
  }
  return s;
}

void Catmint::TrySendBlocked(Connection& conn) {
  while (!conn.blocked_sends.empty() && CreditsAvailable(conn) > 0 &&
         conn.state == Connection::State::kEstablished) {
    PendingSend ps = std::move(conn.blocked_sends.front());
    conn.blocked_sends.pop_front();
    const Status s = SendData(conn, ps.data);
    QResult r;
    r.status = s;
    tokens_.Complete(ps.qt, r);
  }
}

void Catmint::FailBlockedSends(Connection& conn) {
  for (const PendingSend& ps : conn.blocked_sends) {
    QResult r;
    r.status = conn.error == Status::kOk ? Status::kCancelled : conn.error;
    tokens_.Complete(ps.qt, r);
  }
  conn.blocked_sends.clear();
}

void Catmint::PublishConsumed(Connection& conn) {
  if (conn.local_consumed == conn.last_reported_consumed || conn.peer_ctr_addr == 0) {
    return;
  }
  const uint64_t value = conn.local_consumed;
  if (device_.PostWrite(kWellKnownQp, conn.peer_mac, kWellKnownQp, conn.peer_ctr_rkey,
                        conn.peer_ctr_addr,
                        {reinterpret_cast<const uint8_t*>(&value), sizeof(value)}, 0) !=
      Status::kOk) {
    stats_.post_failures++;
    return;  // last_reported_consumed unchanged: the next consume retries the credit update
  }
  conn.last_reported_consumed = value;
  stats_.credit_updates_sent++;
}

std::shared_ptr<Catmint::Connection> Catmint::NewConnection(MacAddr peer_mac) {
  auto conn = std::make_shared<Connection>();
  conn->id = next_conn_id_++;
  conn->peer_mac = peer_mac;
  conn->consumed_by_peer = static_cast<uint64_t*>(alloc_.Alloc(sizeof(uint64_t)));
  *conn->consumed_by_peer = 0;
  alloc_.GetRkey(conn->consumed_by_peer);  // register for the peer's one-sided writes
  conns_[conn->id] = conn;
  return conn;
}

void Catmint::HandleMessage(const RdmaCompletion& comp) {
  if (comp.status != Status::kOk) {
    return;
  }
  const uint8_t* buf = static_cast<const uint8_t*>(recv_slots_[comp.wr_id].buf);
  MsgHeader hdr;
  std::memcpy(&hdr, buf, sizeof(hdr));
  const uint8_t* payload = buf + sizeof(hdr);

  switch (hdr.type) {
    case kMsgConnect: {
      auto lit = listeners_.find(hdr.port);
      if (lit == listeners_.end() || lit->second->pending.size() >= lit->second->backlog) {
        stats_.connects_rejected++;
        SendControl(kMsgReject, comp.src_mac, 0, hdr.src_conn, hdr.port, nullptr);
        break;
      }
      auto conn = NewConnection(comp.src_mac);
      conn->peer_conn = hdr.src_conn;
      conn->peer_ctr_addr = hdr.ctr_addr;
      conn->peer_ctr_rkey = hdr.ctr_rkey;
      conn->peer_addr = SocketAddress{Ipv4Addr{0}, hdr.port};
      conn->state = Connection::State::kEstablished;
      SendControl(kMsgAccept, comp.src_mac, conn->id, hdr.src_conn, hdr.port, conn.get());
      lit->second->pending.push_back(conn);
      lit->second->acceptable.Notify();
      break;
    }
    case kMsgAccept: {
      auto it = conns_.find(hdr.dst_conn);
      if (it == conns_.end()) {
        break;
      }
      Connection& conn = *it->second;
      conn.peer_conn = hdr.src_conn;
      conn.peer_ctr_addr = hdr.ctr_addr;
      conn.peer_ctr_rkey = hdr.ctr_rkey;
      conn.state = Connection::State::kEstablished;
      conn.established.Notify();
      break;
    }
    case kMsgReject: {
      auto it = conns_.find(hdr.dst_conn);
      if (it == conns_.end()) {
        break;
      }
      Connection& conn = *it->second;
      conn.state = Connection::State::kClosed;
      conn.error = Status::kConnectionRefused;
      FailBlockedSends(conn);
      conn.established.Notify();
      conn.readable.Notify();
      break;
    }
    case kMsgData: {
      auto it = conns_.find(hdr.dst_conn);
      if (it == conns_.end()) {
        break;
      }
      Connection& conn = *it->second;
      Buffer data = Buffer::Allocate(alloc_, hdr.payload_len);
      if (hdr.payload_len > 0) {
        std::memcpy(data.mutable_data(), payload, hdr.payload_len);
      }
      conn.rx.push_back(std::move(data));
      conn.readable.Notify();
      stats_.msgs_received++;
      break;
    }
    case kMsgClose: {
      auto it = conns_.find(hdr.dst_conn);
      if (it == conns_.end()) {
        break;
      }
      it->second->remote_closed = true;
      it->second->readable.Notify();
      break;
    }
    default:
      break;
  }
}

void Catmint::FastPath(TimeNs now) {
  // `now` is the poll's one clock read: the CQ poll and the disk run on it.
  const size_t n = device_.PollCq(completions_, now);
  for (size_t i = 0; i < n; i++) {
    const RdmaCompletion& c = completions_[i];
    if (c.type == RdmaCompletion::Type::kRecv) {
      HandleMessage(c);
      free_slots_.push_back(c.wr_id);
      posted_recvs_--;
    }
  }
  if (storage_ != nullptr) {
    storage_->Poll(now);
  }
  // Complete the accepts, connects and pops these messages made ready, and the file ops
  // whose disk I/O completed.
  ServeHookedQueues(*this);
  // Credit updates arrive as one-sided writes, which by design raise no completion; the
  // sender learns about them only by reading its counter. Send the blocked pushes that
  // returned credits (or a just-established connection) now allow.
  for (auto& [id, conn] : conns_) {
    if (!conn->blocked_sends.empty()) {
      TrySendBlocked(*conn);
    }
  }
  // Flow control (paper §6.2): once pops consumed messages or the pool runs low, repost the
  // free receive buffers and publish consumption to every connection's peer.
  if (flow_control_due_ || posted_recvs_ < config_.repost_threshold) {
    flow_control_due_ = false;
    PostRecvBuffers();
    for (auto& [id, conn] : conns_) {
      PublishConsumed(*conn);
    }
  }
}

// --- PDPIX surface ---

Result<QueueDesc> Catmint::Socket(SocketType type) {
  if (type != SocketType::kStream) {
    return Status::kNotSupported;  // RDMA messaging is connection-oriented
  }
  const QueueDesc qd = next_qd_++;
  queues_[qd];
  return qd;
}

Status Catmint::Bind(QueueDesc qd, SocketAddress local) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kUnbound) {
    return Status::kBadQueueDescriptor;
  }
  q->bound_port = local.port;
  q->has_bound = true;
  return Status::kOk;
}

Status Catmint::Listen(QueueDesc qd, int backlog) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kUnbound || !q->has_bound) {
    return Status::kInvalidArgument;
  }
  if (listeners_.count(q->bound_port) > 0) {
    return Status::kAddressInUse;
  }
  q->listener = std::make_unique<Listener>();
  q->listener->port = q->bound_port;
  q->listener->backlog = static_cast<size_t>(backlog);
  q->kind = QKind::kListener;
  listeners_[q->bound_port] = q->listener.get();
  return Status::kOk;
}

QueueDesc Catmint::InstallConnQueue(std::shared_ptr<Connection> conn) {
  const QueueDesc qd = next_qd_++;
  QueueState& q = queues_[qd];
  q.kind = QKind::kConn;
  q.conn = std::move(conn);
  return qd;
}

Result<QToken> Catmint::Accept(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kListener) {
    return Status::kBadQueueDescriptor;
  }
  return SubmitPending(*this, qd, *q, OpCode::kAccept);
}

Result<QToken> Catmint::Connect(QueueDesc qd, SocketAddress remote) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kUnbound) {
    return Status::kBadQueueDescriptor;
  }
  auto dir = directory_.find(remote.ip.value);
  if (dir == directory_.end()) {
    return Status::kNotFound;  // no rdma_cm mapping for that address
  }
  auto conn = NewConnection(dir->second);
  conn->peer_addr = remote;
  q->kind = QKind::kConn;
  q->conn = conn;
  SendControl(kMsgConnect, conn->peer_mac, conn->id, 0, remote.port, conn.get());
  return SubmitPending(*this, qd, *q, OpCode::kConnect);
}

Result<QToken> Catmint::Push(QueueDesc qd, const Sgarray& sga) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kFile) {
    const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
    storage_->PinPush(*q->file, sga, qd, qt, QueuedBehindRead(*q));
    return SubmitPending(*this, qd, *q, PendingOp{qt, OpCode::kPush});
  }
  if (q->kind != QKind::kConn) {
    return Status::kNotConnected;
  }
  if (sga.TotalBytes() > config_.max_msg_size) {
    return Status::kMessageTooLong;
  }
  Connection& conn = *q->conn;
  if (conn.state == Connection::State::kClosed) {
    return conn.error == Status::kOk ? Status::kNotConnected : conn.error;
  }

  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  // One message per push. Single-segment pushes ride zero-copy; multi-segment gathers flatten.
  Buffer data;
  if (sga.num_segs == 1) {
    data = Buffer::TryFromApp(alloc_, sga.segs[0].buf, sga.segs[0].len);
    if (data.valid() && data.size() >= PoolAllocator::kZeroCopyThreshold) {
      data.Rkey();
    }
  } else {
    data = Buffer::TryAllocate(alloc_, sga.TotalBytes());
    size_t off = 0;
    for (uint32_t i = 0; i < sga.num_segs && data.valid(); i++) {
      std::memcpy(data.mutable_data() + off, sga.segs[i].buf, sga.segs[i].len);
      off += sga.segs[i].len;
    }
  }
  if (!data.valid()) {
    QResult r;
    r.status = Status::kNoMemory;  // heap exhausted: ENOMEM via the qtoken
    CompleteToken(qt, r);
    return qt;
  }
  if (conn.state == Connection::State::kEstablished && conn.blocked_sends.empty() &&
      CreditsAvailable(conn) > 0) {
    // Fast path: send inline.
    QResult r;
    r.status = SendData(conn, data);
    CompleteToken(qt, r);
    return qt;
  }
  // Out of credits (or still connecting): the fast path's credit scan sends it later.
  stats_.sends_blocked_on_credits++;
  conn.blocked_sends.push_back(PendingSend{std::move(data), qt});
  return qt;
}

Result<QToken> Catmint::Pop(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind != QKind::kConn && q->kind != QKind::kFile) {
    return Status::kNotConnected;
  }
  return SubmitPending(*this, qd, *q, OpCode::kPop);
}

// --- Waiting ops (LibOS::PendingOps) ---

std::optional<QResult> Catmint::NextResult(QueueState& q, OpCode op) {
  // demilint: fastpath
  if (q.kind == QKind::kFile) {
    return storage_->NextResult(*q.file, op, q.closing);
  }
  QResult r;
  if (q.closing) {
    r.status = Status::kCancelled;
    return r;
  }
  if (op == OpCode::kAccept) {
    Listener& listener = *q.listener;
    if (listener.pending.empty()) {
      return std::nullopt;
    }
    std::shared_ptr<Connection> conn = std::move(listener.pending.front());
    listener.pending.pop_front();
    r.remote = conn->peer_addr;
    r.new_qd = InstallConnQueue(std::move(conn));
    return r;
  }
  Connection& conn = *q.conn;
  r.remote = conn.peer_addr;
  if (op == OpCode::kConnect) {
    if (conn.state == Connection::State::kConnecting) {
      return std::nullopt;
    }
    r.status = conn.state == Connection::State::kEstablished ? Status::kOk : conn.error;
    return r;
  }
  if (!conn.rx.empty()) {
    r.sga = BufferToAppSga(std::move(conn.rx.front()));
    conn.rx.pop_front();
    conn.local_consumed++;
    flow_control_due_ = true;  // the fast path publishes the credit
    return r;
  }
  if (conn.remote_closed || conn.state == Connection::State::kClosed) {
    r.status = conn.error == Status::kOk ? Status::kEndOfFile : conn.error;
    return r;
  }
  return std::nullopt;
  // demilint: end-fastpath
}

WaitList& Catmint::WaitEvent(QueueState& q, OpCode op) {
  // demilint: fastpath
  if (q.kind == QKind::kFile) {
    return storage_->WaitEvent(*q.file, op);
  }
  if (op == OpCode::kAccept) {
    return q.listener->acceptable;
  }
  return op == OpCode::kConnect ? q.conn->established : q.conn->readable;
  // demilint: end-fastpath
}

Result<QueueDesc> Catmint::Open(std::string_view path) {
  if (storage_ == nullptr) {
    return Status::kNotSupported;
  }
  const QueueDesc qd = next_qd_++;
  QueueState& q = queues_[qd];
  q.kind = QKind::kFile;
  q.file = storage_->OpenFile();
  return qd;
}

Status Catmint::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  return storage_->Seek(*q->file, offset);
}

Status Catmint::Truncate(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  return storage_->Truncate(offset);
}

Status Catmint::Close(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  // The queue is torn down here. Its pending ops complete with kCancelled now, except a file
  // op whose log I/O is on the device, which completes once that I/O does.
  switch (q->kind) {
    case QKind::kConn: {
      Connection& conn = *q->conn;
      if (conn.state == Connection::State::kEstablished) {
        SendControl(kMsgClose, conn.peer_mac, conn.id, conn.peer_conn, 0, nullptr);
      }
      conn.state = Connection::State::kClosed;
      FailBlockedSends(conn);
      conns_.erase(conn.id);
      break;
    }
    case QKind::kListener:
      listeners_.erase(q->listener->port);
      break;
    default:
      break;
  }
  CloseQueue(*this, qd);
  return Status::kOk;
}

}  // namespace demi
