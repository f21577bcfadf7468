#include "src/liboses/catnap.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/logging.h"
#include "src/memory/dma.h"

namespace demi {

namespace {

constexpr uint32_t kFileRecordMagic = 0x4C4F4752;  // same framing as LogDevice ("LOGR")
constexpr size_t kFileHeaderSize = 8;

sockaddr_in ToSockaddr(SocketAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip.value);
  sa.sin_port = htons(addr.port);
  return sa;
}

SocketAddress FromSockaddr(const sockaddr_in& sa) {
  return SocketAddress{Ipv4Addr{ntohl(sa.sin_addr.s_addr)}, ntohs(sa.sin_port)};
}

[[nodiscard]] Status ErrnoToStatus(int err) {
  switch (err) {
    case ECONNREFUSED: return Status::kConnectionRefused;
    case ECONNRESET: return Status::kConnectionReset;
    case ECONNABORTED: return Status::kConnectionAborted;
    case ENOTCONN: return Status::kNotConnected;
    case EADDRINUSE: return Status::kAddressInUse;
    case ETIMEDOUT: return Status::kTimedOut;
    case EMSGSIZE: return Status::kMessageTooLong;
    case ENOMEM: return Status::kNoMemory;
    case EBADF: return Status::kBadQueueDescriptor;
    case EPIPE: return Status::kConnectionReset;
    default: return Status::kIoError;
  }
}

uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

// Sends one datagram to `to`, or to the connected peer when `to` is null.
[[nodiscard]] Status SendDatagram(int fd, const Sgarray& sga, sockaddr_in* to) {
  iovec iov[kSgaMaxSegments];
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    iov[i] = {sga.segs[i].buf, sga.segs[i].len};
  }
  msghdr msg{};
  msg.msg_name = to;
  msg.msg_namelen = to == nullptr ? 0 : sizeof(*to);
  msg.msg_iov = iov;
  msg.msg_iovlen = sga.num_segs;
  return ::sendmsg(fd, &msg, 0) < 0 ? ErrnoToStatus(errno) : Status::kOk;
}

}  // namespace

Catnap::Catnap(Clock& clock) : LibOS("catnap", clock, NullDmaRegistrar::Global()) {}

Catnap::~Catnap() {
  for (auto& [qd, q] : queues_) {
    if (q.fd >= 0) {
      ::close(q.fd);
    }
  }
}


QToken Catnap::CompleteNow(QueueDesc qd, OpCode op, Status status) {
  const QToken qt = tokens_.Allocate(op, qd);
  QResult r;
  r.status = status;
  CompleteToken(qt, r);
  return qt;
}

QueueDesc Catnap::InstallFd(int fd, QKind kind, SocketType type) {
  const QueueDesc qd = next_qd_++;
  QueueState& q = queues_[qd];
  q.kind = kind;
  q.fd = fd;
  q.type = type;
  return qd;
}

Result<QueueDesc> Catnap::Socket(SocketType type) {
  const int sock_type =
      (type == SocketType::kStream ? SOCK_STREAM : SOCK_DGRAM) | SOCK_NONBLOCK;
  const int fd = ::socket(AF_INET, sock_type, 0);
  if (fd < 0) {
    return ErrnoToStatus(errno);
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (type == SocketType::kStream) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return InstallFd(fd, type == SocketType::kStream ? QKind::kTcp : QKind::kUdp, type);
}

Status Catnap::Bind(QueueDesc qd, SocketAddress local) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->fd < 0) {
    return Status::kBadQueueDescriptor;
  }
  sockaddr_in sa = ToSockaddr(local);
  if (::bind(q->fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return ErrnoToStatus(errno);
  }
  return Status::kOk;
}

Status Catnap::Listen(QueueDesc qd, int backlog) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kTcp) {
    return Status::kBadQueueDescriptor;
  }
  if (::listen(q->fd, backlog) != 0) {
    return ErrnoToStatus(errno);
  }
  q->kind = QKind::kTcpListener;
  return Status::kOk;
}

Result<QToken> Catnap::Accept(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kTcpListener) {
    return Status::kBadQueueDescriptor;
  }
  return SubmitPending(*this, qd, *q, OpCode::kAccept);
}

Result<QToken> Catnap::Connect(QueueDesc qd, SocketAddress remote) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  // A UDP connect, or a TCP one that needs no handshake, has a peer at once, so NextResult
  // completes it inside SubmitPending; an in-progress TCP connect waits.
  sockaddr_in sa = ToSockaddr(remote);
  if (::connect(q->fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 &&
      errno != EINPROGRESS) {
    return CompleteNow(qd, OpCode::kConnect, ErrnoToStatus(errno));
  }
  return SubmitPending(*this, qd, *q, OpCode::kConnect);
}

Result<QToken> Catnap::Push(QueueDesc qd, const Sgarray& sga) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kFile) {
    // Append one framed record, then fsync for durability (the paper's logging setup).
    const size_t payload = sga.TotalBytes();
    std::vector<uint8_t> rec(AlignUp8(kFileHeaderSize + payload), 0);
    const uint32_t magic = kFileRecordMagic;
    const uint32_t len32 = static_cast<uint32_t>(payload);
    std::memcpy(rec.data(), &magic, 4);
    std::memcpy(rec.data() + 4, &len32, 4);
    size_t off = kFileHeaderSize;
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      std::memcpy(rec.data() + off, sga.segs[i].buf, sga.segs[i].len);
      off += sga.segs[i].len;
    }
    const ssize_t n = ::write(q->fd, rec.data(), rec.size());
    return CompleteNow(qd, OpCode::kPush,
                       n != static_cast<ssize_t>(rec.size()) || ::fsync(q->fd) != 0
                           ? ErrnoToStatus(errno)
                           : Status::kOk);
  }
  if (q->kind == QKind::kUdp) {
    if (!q->connected) {
      return Status::kNotConnected;
    }
    return CompleteNow(qd, OpCode::kPush, SendDatagram(q->fd, sga, nullptr));
  }
  // TCP: write inline while no earlier push is unsent, so the stream keeps submission order.
  UnsentPush push;
  if (q->unsent.empty()) {
    iovec iov[kSgaMaxSegments];
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      iov[i] = {sga.segs[i].buf, sga.segs[i].len};
    }
    const ssize_t n = ::writev(q->fd, iov, static_cast<int>(sga.num_segs));
    if (n == static_cast<ssize_t>(sga.TotalBytes()) ||
        (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      return CompleteNow(qd, OpCode::kPush, n < 0 ? ErrnoToStatus(errno) : Status::kOk);
    }
    push.written = n < 0 ? 0 : static_cast<size_t>(n);
  }
  // The fast path writes the rest. Pin the app's buffers: references to heap memory, copies of
  // foreign or small memory.
  push.pinned.reserve(sga.num_segs);
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    push.pinned.push_back(Buffer::TryFromApp(alloc_, sga.segs[i].buf, sga.segs[i].len));
    if (!push.pinned.back().valid()) {
      return CompleteNow(qd, OpCode::kPush, Status::kNoMemory);  // heap exhausted: ENOMEM
    }
  }
  if (q->unsent.empty()) {
    unsent_queues_.push_back(qd);
  }
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  push.qt = qt;
  q->unsent.push_back(std::move(push));
  return qt;
}

void Catnap::WriteUnsent(QueueState& q) {
  while (!q.unsent.empty()) {
    UnsentPush& push = q.unsent.front();
    iovec iov[kSgaMaxSegments];
    int iovcnt = 0;
    size_t skip = push.written;
    size_t left = 0;
    for (const Buffer& b : push.pinned) {
      if (skip >= b.size()) {
        skip -= b.size();
        continue;
      }
      iov[iovcnt++] = {const_cast<uint8_t*>(b.data()) + skip, b.size() - skip};
      left += b.size() - skip;
      skip = 0;
    }
    const ssize_t n = ::writev(q.fd, iov, iovcnt);
    if (n >= 0 && static_cast<size_t>(n) < left) {
      push.written += static_cast<size_t>(n);  // short write: the socket is full
      return;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    QResult r;
    r.status = n < 0 ? ErrnoToStatus(errno) : Status::kOk;
    CompleteToken(push.qt, r);
    q.unsent.pop_front();
  }
}

Result<QToken> Catnap::PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kUdp) {
    return Status::kBadQueueDescriptor;
  }
  sockaddr_in sa = ToSockaddr(to);
  return CompleteNow(qd, OpCode::kPush, SendDatagram(q->fd, sga, &sa));
}

Result<QToken> Catnap::Pop(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kFile) {
    const QToken qt = tokens_.Allocate(OpCode::kPop, qd);
    // Synchronous framed read at the cursor.
    uint8_t hdr[kFileHeaderSize];
    QResult r;
    const ssize_t n = ::pread(q->fd, hdr, sizeof(hdr), static_cast<off_t>(q->read_cursor));
    if (n == 0) {
      r.status = Status::kEndOfFile;
    } else if (n != static_cast<ssize_t>(sizeof(hdr))) {
      r.status = Status::kIoError;
    } else {
      uint32_t magic = 0;
      uint32_t len = 0;
      std::memcpy(&magic, hdr, 4);
      std::memcpy(&len, hdr + 4, 4);
      if (magic != kFileRecordMagic) {
        r.status = Status::kProtocolError;
      } else {
        void* buf = alloc_.Alloc(len == 0 ? 1 : len);
        if (::pread(q->fd, buf, len, static_cast<off_t>(q->read_cursor + kFileHeaderSize)) !=
            static_cast<ssize_t>(len)) {
          alloc_.Free(buf);
          r.status = Status::kIoError;
        } else {
          q->read_cursor += AlignUp8(kFileHeaderSize + len);
          r.status = Status::kOk;
          r.sga = Sgarray::Of(buf, len);
        }
      }
    }
    CompleteToken(qt, r);
    return qt;
  }
  return SubmitPending(*this, qd, *q, OpCode::kPop);
}

// --- Waiting ops (LibOS::PendingOps) ---

std::optional<QResult> Catnap::NextResult(QueueState& q, OpCode op) {
  QResult r;
  if (q.closing) {
    r.status = Status::kCancelled;
    return r;
  }
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(peer);
  int err = 0;
  if (op == OpCode::kAccept) {
    const int fd = ::accept4(q.fd, reinterpret_cast<sockaddr*>(&peer), &peer_len, SOCK_NONBLOCK);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      r.new_qd = InstallFd(fd, QKind::kTcp, SocketType::kStream);
      queues_[r.new_qd].connected = true;
      r.remote = FromSockaddr(peer);
      return r;
    }
    err = errno;
  } else if (op == OpCode::kConnect) {
    // A connect in progress has no peer name yet; a failed one reports its error in SO_ERROR.
    if (::getpeername(q.fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) == 0) {
      q.connected = true;
      r.remote = FromSockaddr(peer);
      return r;
    }
    socklen_t err_len = sizeof(err);
    ::getsockopt(q.fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err == 0) {
      return std::nullopt;
    }
  } else {
    // Without a buffer nothing is read: the bytes stay in the kernel for the next pop.
    void* buf = alloc_.Alloc(kPopChunk);
    if (buf == nullptr) {
      r.status = Status::kNoMemory;
      return r;
    }
    const ssize_t n =
        q.type == SocketType::kDatagram
            ? ::recvfrom(q.fd, buf, kPopChunk, 0, reinterpret_cast<sockaddr*>(&peer), &peer_len)
            : ::read(q.fd, buf, kPopChunk);
    err = errno;
    if (n > 0) {
      r.sga = Sgarray::Of(buf, static_cast<uint32_t>(n));
      if (q.type == SocketType::kDatagram) {
        r.remote = FromSockaddr(peer);
      }
      return r;
    }
    alloc_.Free(buf);
    if (n == 0) {
      // A stream's end; an empty datagram carries nothing to pop.
      if (q.type == SocketType::kDatagram) {
        return std::nullopt;
      }
      r.status = Status::kEndOfFile;
      return r;
    }
  }
  if (err == EAGAIN || err == EWOULDBLOCK) {
    return std::nullopt;
  }
  r.status = ErrnoToStatus(err);
  return r;
}

void Catnap::FastPath(TimeNs /*now*/) {
  // Catnap has no device events: every waiting queue retries its oldest op once per poll.
  next_poll_.Notify();
  ServeHookedQueues(*this);
  size_t kept = 0;
  for (const QueueDesc qd : unsent_queues_) {
    QueueState* q = FindQueue(*this, qd);
    if (q == nullptr) {
      continue;  // closed: Close completed its pushes
    }
    WriteUnsent(*q);
    if (!q->unsent.empty()) {
      unsent_queues_[kept++] = qd;
    }
  }
  unsent_queues_.resize(kept);
}

Result<QueueDesc> Catnap::Open(std::string_view path) {
  const std::string p(path);
  const int fd = ::open(p.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return ErrnoToStatus(errno);
  }
  return InstallFd(fd, QKind::kFile, SocketType::kStream);
}

Status Catnap::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  q->read_cursor = offset;
  return Status::kOk;
}

Status Catnap::Truncate(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  // Log-GC semantics: drop everything *before* offset is not expressible on a flat file, so
  // Catnap interprets truncate as cutting the tail back to `offset`, like ftruncate.
  if (::ftruncate(q->fd, static_cast<off_t>(offset)) != 0) {
    return ErrnoToStatus(errno);
  }
  return Status::kOk;
}

Status Catnap::Close(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  // Unsent pushes, and pending accepts, connects and pops, complete with kCancelled now.
  // Nothing else refers to the queue afterwards, so it is torn down here.
  for (const UnsentPush& push : q->unsent) {
    tokens_.Cancel(push.qt, Status::kCancelled);
  }
  if (q->fd >= 0) {
    ::close(q->fd);
  }
  CloseQueue(*this, qd);
  return Status::kOk;
}

}  // namespace demi
