#include "src/apps/echo.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

#include "src/common/logging.h"
#include "src/core/shard_group.h"

namespace demi {

EchoServerApp::EchoServerApp(LibOS& os, const EchoServerOptions& options)
    : os_(os), options_(options) {
  if (options.log_to_disk) {
    auto log = os.Open(options.log_path);
    DEMI_CHECK_MSG(log.ok(), "echo server: cannot open log queue");
    log_qd_ = *log;
  }
  auto sock = os.Socket(options.type);
  DEMI_CHECK(sock.ok());
  DEMI_CHECK(os.Bind(*sock, options.listen) == Status::kOk);
  if (options.tenant != kDefaultTenant) {
    DEMI_CHECK(os.SetQueueTenant(*sock, options.tenant) == Status::kOk);
  }
  if (options.type == SocketType::kStream) {
    DEMI_CHECK(os.Listen(*sock, 64) == Status::kOk);
    auto accept_qt = os.Accept(*sock);
    DEMI_CHECK(accept_qt.ok());
    tokens_.push_back(*accept_qt);
  } else {
    auto pop_qt = os.Pop(*sock);
    DEMI_CHECK(pop_qt.ok());
    tokens_.push_back(*pop_qt);
  }
}

void EchoServerApp::HandleAccept(size_t index, QResult& r) {
  if (r.status != Status::kOk) {
    tokens_.erase(tokens_.begin() + static_cast<long>(index));
    return;
  }
  stats_.connections++;
  auto pop_qt = os_.Pop(r.new_qd);
  if (pop_qt.ok()) {
    tokens_.push_back(*pop_qt);
  }
  auto accept_qt = os_.Accept(r.qd);
  DEMI_CHECK(accept_qt.ok());
  tokens_[index] = *accept_qt;
}

void EchoServerApp::HandlePop(size_t index, QResult& r) {
  const QueueDesc qd = r.qd;
  if (r.status != Status::kOk) {
    os_.Close(qd);
    tokens_.erase(tokens_.begin() + static_cast<long>(index));
    return;
  }
  stats_.requests++;
  stats_.bytes += r.sga.TotalBytes();
  if (log_qd_ != kInvalidQd) {
    // Persist before replying (Figure 7): one durable log append per message. This Wait blocks
    // only on our own libOS (the disk lives with us), so Pump stays composable.
    auto log_qt = os_.Push(log_qd_, r.sga);
    if (log_qt.ok()) {
      auto log_r = os_.Wait(*log_qt);
      if (!log_r.ok() || log_r->status != Status::kOk) {
        stats_.log_failures++;  // degrade: echo anyway, message just isn't durable
      }
    } else {
      stats_.log_failures++;
    }
  }
  // Echo the same buffers back; UAF protection lets us free right after push.
  Result<QToken> push_qt = options_.type == SocketType::kStream
                               ? os_.Push(qd, r.sga)
                               : os_.PushTo(qd, r.sga, r.remote);
  os_.FreeSga(r.sga);
  if (push_qt.ok() && !os_.IsDone(*push_qt)) {
    // Slow path (Catnap short write, Catmint out of credits): the push takes its pop's slot and
    // Pump re-arms the pop once it completes, which keeps replies in order. Waiting here could
    // deadlock: in duet mode the peer that unblocks the push runs only between pumps.
    tokens_[index] = *push_qt;
    return;
  }
  if (push_qt.ok()) {
    (void)os_.TryTake(*push_qt);
  }
  RearmPop(index, qd);
}

void EchoServerApp::RearmPop(size_t index, QueueDesc qd) {
  auto pop_qt = os_.Pop(qd);
  if (pop_qt.ok()) {
    tokens_[index] = *pop_qt;
  } else {
    os_.Close(qd);
    tokens_.erase(tokens_.begin() + static_cast<long>(index));
  }
}

size_t EchoServerApp::Pump() {
  size_t served = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < tokens_.size(); i++) {
      if (!os_.IsDone(tokens_[i])) {
        continue;
      }
      auto result = os_.TryTake(tokens_[i]);
      if (!result.ok()) {
        continue;
      }
      if (result->opcode == OpCode::kAccept) {
        HandleAccept(i, *result);
      } else if (result->opcode == OpCode::kPop) {
        HandlePop(i, *result);
        served++;
      } else if (result->opcode == OpCode::kPush) {
        RearmPop(i, result->qd);  // a slow-path echo push finished
      }
      progress = true;
      break;  // token list mutated; rescan
    }
  }
  return served;
}

void RunEchoServer(LibOS& os, const EchoServerOptions& options, std::atomic<bool>& stop,
                   EchoServerStats* stats) {
  EchoServerApp app(os, options);
  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    os.PollOnce();
    app.Pump();
  }
  if (stats != nullptr) {
    *stats = app.stats();
  }
}

void StartShardedEchoServer(ShardGroup& group, const EchoServerOptions& options,
                            std::vector<EchoServerStats>* per_shard) {
  if (per_shard != nullptr) {
    per_shard->assign(group.num_workers(), EchoServerStats{});
  }
  group.Start([&group, options, per_shard](size_t shard_id, Catnip& os) {
    EchoServerApp app(os, options);
    group.ServeLoop(os, [&app] { app.Pump(); });
    if (per_shard != nullptr) {
      (*per_shard)[shard_id] = app.stats();  // distinct slot per worker; read after Join
    }
  });
}

// --- POSIX variants (kernel path baseline) ---

namespace {

sockaddr_in ToSockaddr(SocketAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip.value);
  sa.sin_port = htons(addr.port);
  return sa;
}

}  // namespace

void RunPosixEchoServer(const EchoServerOptions& options, std::atomic<bool>& stop,
                        EchoServerStats* stats) {
  EchoServerStats local_stats;
  int log_fd = -1;
  if (options.log_to_disk) {
    log_fd = ::open(options.log_path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    DEMI_CHECK(log_fd >= 0);
  }
  const int type =
      options.type == SocketType::kStream ? SOCK_STREAM : SOCK_DGRAM;
  const int fd = ::socket(AF_INET, type, 0);
  DEMI_CHECK(fd >= 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa = ToSockaddr(options.listen);
  DEMI_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0);

  // Pre-allocated receive buffer: the POSIX server cannot do zero-copy, so it reuses one
  // buffer and pays a copy per direction (paper §7.2's discussion).
  std::vector<uint8_t> buf(64 * 1024);

  if (options.type == SocketType::kDatagram) {
    timeval tv{0, 2000};  // 2 ms: bounded blocking so `stop` is honored
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
    while (!stop.load(std::memory_order_relaxed)) {
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      const ssize_t n = ::recvfrom(fd, buf.data(), buf.size(), 0,
                                   reinterpret_cast<sockaddr*>(&peer), &peer_len);
      if (n <= 0) {
        continue;
      }
      local_stats.requests++;
      local_stats.bytes += static_cast<uint64_t>(n);
      if (log_fd >= 0) {
        DEMI_CHECK(::write(log_fd, buf.data(), static_cast<size_t>(n)) == n);
        DEMI_CHECK(::fsync(log_fd) == 0);
      }
      ::sendto(fd, buf.data(), static_cast<size_t>(n), 0, reinterpret_cast<sockaddr*>(&peer),
               peer_len);
    }
  } else {
    DEMI_CHECK(::listen(fd, 64) == 0);
    timeval tv{0, 2000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
    while (!stop.load(std::memory_order_relaxed)) {
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      // Bounded accept via the listener's timeout semantics is not portable; poll with a
      // short select instead.
      fd_set rfds;
      FD_ZERO(&rfds);
      FD_SET(fd, &rfds);
      timeval sel_tv{0, 2000};
      if (::select(fd + 1, &rfds, nullptr, nullptr, &sel_tv) <= 0) {
        continue;
      }
      const int conn = ::accept(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len);
      if (conn < 0) {
        continue;
      }
      local_stats.connections++;
      const int nodelay = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
      while (!stop.load(std::memory_order_relaxed)) {
        const ssize_t n = ::read(conn, buf.data(), buf.size());
        if (n == 0) {
          break;
        }
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            continue;
          }
          break;
        }
        local_stats.requests++;
        local_stats.bytes += static_cast<uint64_t>(n);
        if (log_fd >= 0) {
          DEMI_CHECK(::write(log_fd, buf.data(), static_cast<size_t>(n)) == n);
          DEMI_CHECK(::fsync(log_fd) == 0);
        }
        ssize_t written = 0;
        while (written < n) {
          const ssize_t w = ::write(conn, buf.data() + written, static_cast<size_t>(n - written));
          if (w <= 0) {
            break;
          }
          written += w;
        }
      }
      ::close(conn);
    }
  }
  ::close(fd);
  if (log_fd >= 0) {
    ::close(log_fd);
  }
  if (stats != nullptr) {
    *stats = local_stats;
  }
}

}  // namespace demi
