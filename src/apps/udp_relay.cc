#include "src/apps/udp_relay.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/common/logging.h"

namespace demi {

namespace {

sockaddr_in RelaySockaddr(SocketAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip.value);
  sa.sin_port = htons(addr.port);
  return sa;
}

}  // namespace

UdpRelayApp::UdpRelayApp(LibOS& os, const RelayOptions& options)
    : os_(os), options_(options) {
  auto sock = os.Socket(SocketType::kDatagram);
  DEMI_CHECK(sock.ok());
  DEMI_CHECK(os.Bind(*sock, options.listen) == Status::kOk);
  sock_ = *sock;
  auto pop = os.Pop(sock_);
  DEMI_CHECK(pop.ok());
  pop_ = *pop;
}

size_t UdpRelayApp::Pump() {
  std::erase_if(pushes_, [this](QToken qt) { return os_.TryTake(qt).ok(); });
  size_t forwarded = 0;
  while (os_.IsDone(pop_)) {
    auto r = os_.TryTake(pop_);
    if (r.ok() && r->status == Status::kOk) {
      stats_.forwarded++;
      stats_.bytes += r->sga.TotalBytes();
      forwarded++;
      // Forward the received buffers as-is (zero-copy relay) and free immediately.
      auto push = os_.PushTo(sock_, r->sga, options_.target);
      os_.FreeSga(r->sga);
      // Catnip completes a datagram push inline; one still in flight is redeemed by a later
      // Pump.
      if (push.ok() && !os_.TryTake(*push).ok()) {
        pushes_.push_back(*push);
      }
    }
    auto next = os_.Pop(sock_);
    DEMI_CHECK(next.ok());
    pop_ = *next;
  }
  return forwarded;
}

void RunUdpRelay(LibOS& os, const RelayOptions& options, std::atomic<bool>& stop,
                 RelayStats* stats) {
  UdpRelayApp app(os, options);
  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    os.PollOnce();
    app.Pump();
  }
  if (stats != nullptr) {
    *stats = app.stats();
  }
}

void RunPosixUdpRelay(const RelayOptions& options, std::atomic<bool>& stop, RelayStats* stats) {
  RelayStats local;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  DEMI_CHECK(fd >= 0);
  sockaddr_in sa = RelaySockaddr(options.listen);
  DEMI_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0);
  timeval tv{0, 2000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in target = RelaySockaddr(options.target);

  std::vector<uint8_t> buf(64 * 1024);
  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recvfrom(fd, buf.data(), buf.size(), 0, nullptr, nullptr);
    if (n <= 0) {
      continue;
    }
    local.forwarded++;
    local.bytes += static_cast<uint64_t>(n);
    ::sendto(fd, buf.data(), static_cast<size_t>(n), 0, reinterpret_cast<sockaddr*>(&target),
             sizeof(target));
  }
  ::close(fd);
  if (stats != nullptr) {
    *stats = local;
  }
}

void RunBatchedPosixUdpRelay(const RelayOptions& options, std::atomic<bool>& stop,
                             RelayStats* stats) {
  RelayStats local;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  DEMI_CHECK(fd >= 0);
  sockaddr_in sa = RelaySockaddr(options.listen);
  DEMI_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0);
  timeval tv{0, 2000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in target = RelaySockaddr(options.target);

  constexpr int kBatch = 32;
  std::vector<std::vector<uint8_t>> bufs(kBatch, std::vector<uint8_t>(2048));
  mmsghdr rx_msgs[kBatch];
  iovec rx_iov[kBatch];
  mmsghdr tx_msgs[kBatch];
  iovec tx_iov[kBatch];

  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < kBatch; i++) {
      rx_iov[i] = {bufs[i].data(), bufs[i].size()};
      std::memset(&rx_msgs[i], 0, sizeof(rx_msgs[i]));
      rx_msgs[i].msg_hdr.msg_iov = &rx_iov[i];
      rx_msgs[i].msg_hdr.msg_iovlen = 1;
    }
    // MSG_WAITFORONE: return as soon as at least one datagram arrived (plain recvmmsg would
    // block for the whole batch, adding milliseconds at low load).
    const int n = ::recvmmsg(fd, rx_msgs, kBatch, MSG_WAITFORONE, nullptr);
    if (n <= 0) {
      continue;
    }
    for (int i = 0; i < n; i++) {
      tx_iov[i] = {bufs[i].data(), rx_msgs[i].msg_len};
      std::memset(&tx_msgs[i], 0, sizeof(tx_msgs[i]));
      tx_msgs[i].msg_hdr.msg_iov = &tx_iov[i];
      tx_msgs[i].msg_hdr.msg_iovlen = 1;
      tx_msgs[i].msg_hdr.msg_name = &target;
      tx_msgs[i].msg_hdr.msg_namelen = sizeof(target);
      local.forwarded++;
      local.bytes += rx_msgs[i].msg_len;
    }
    ::sendmmsg(fd, tx_msgs, static_cast<unsigned>(n), 0);
  }
  ::close(fd);
  if (stats != nullptr) {
    *stats = local;
  }
}

}  // namespace demi
