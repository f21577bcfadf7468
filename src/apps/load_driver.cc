#include "src/apps/load_driver.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>

#include "src/apps/minikv.h"
#include "src/common/logging.h"

namespace demi {

namespace {

constexpr double kYcsbZipfTheta = 0.99;

// Length of the whole MiniKv frame ([u32 len][body]) at the front of `bytes`, or 0.
size_t KvFrameLength(std::span<const uint8_t> bytes) {
  if (bytes.size() < 4) {
    return 0;
  }
  uint32_t len;
  std::memcpy(&len, bytes.data(), 4);
  return bytes.size() - 4 >= len ? 4 + len : 0;
}

std::string MakeYcsbKey(uint64_t id, size_t key_size) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "user%016llx", static_cast<unsigned long long>(id));
  std::string key(buf, static_cast<size_t>(n));
  key.resize(key_size, 'k');
  return key;
}

sockaddr_in ToSockaddr(SocketAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip.value);
  sa.sin_port = htons(addr.port);
  return sa;
}

}  // namespace

// --- PDPIX transport ---

PdpixTransport::PdpixTransport(LibOS& os, SocketType type, std::vector<SocketAddress> peers,
                               std::optional<SocketAddress> local)
    : Transport(type), os_(os) {
  for (const SocketAddress& peer : peers) {
    auto sock = os.Socket(type);
    DEMI_CHECK(sock.ok() && (!local || os.Bind(*sock, *local) == Status::kOk));
    auto connect = os.Connect(*sock, peer);
    DEMI_CHECK(connect.ok());
    auto r = os.Wait(*connect, 5 * kSecond);
    DEMI_CHECK_MSG(r.ok() && r->status == Status::kOk, "load driver: connect failed");
    qds_.push_back(*sock);
  }
  pops_.assign(qds_.size(), kInvalidQToken);
}

PdpixTransport::~PdpixTransport() {
  for (QueueDesc qd : qds_) {
    (void)os_.Close(qd);
  }
  // Closing completes the armed pops; redeem them and every push still in flight.
  std::copy_if(pops_.begin(), pops_.end(), std::back_inserter(pushes_),
               [](QToken qt) { return qt != kInvalidQToken; });
  std::vector<QResult> results;
  (void)os_.WaitAll(pushes_, &results, timeout());
  for (QResult& r : results) {
    os_.FreeSga(r.sga);
  }
}

bool PdpixTransport::Send(size_t peer, std::span<const uint8_t> bytes) {
  void* buf = os_.DmaMalloc(bytes.size());
  std::memcpy(buf, bytes.data(), bytes.size());
  auto push = os_.Push(qds_[peer], Sgarray::Of(buf, static_cast<uint32_t>(bytes.size())));
  os_.DmaFree(buf);  // UAF protection: safe right after the push
  if (!push.ok()) {
    return false;
  }
  if (!os_.TryTake(*push).ok()) {
    pushes_.push_back(*push);  // still in flight (Catnap short write, Catmint credits)
  }
  return true;
}

std::optional<size_t> PdpixTransport::Receive(DurationNs timeout, Inbox& inbox) {
  for (size_t i = 0; i < pops_.size(); i++) {
    if (pops_[i] == kInvalidQToken) {
      auto pop = os_.Pop(qds_[i]);
      if (!pop.ok()) {
        return std::nullopt;
      }
      pops_[i] = *pop;
    }
  }
  size_t index = 0;
  auto r = os_.WaitAny(pops_, &index, timeout);
  std::erase_if(pushes_, [this](QToken qt) { return os_.TryTake(qt).ok(); });
  if (!r.ok()) {
    return std::nullopt;  // timed out: the pop stays armed for the next reply
  }
  pops_[index] = kInvalidQToken;
  if (r->status != Status::kOk) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < r->sga.num_segs; i++) {
    const auto* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
    inbox[index].insert(inbox[index].end(), p, p + r->sga.segs[i].len);
  }
  os_.FreeSga(r->sga);
  return index;
}

// --- POSIX transport ---

PosixTransport::PosixTransport(SocketType type, std::vector<SocketAddress> peers,
                               std::optional<SocketAddress> local)
    : Transport(type), rx_(64 * 1024) {
  for (const SocketAddress& peer : peers) {
    const int fd = ::socket(AF_INET, type == SocketType::kStream ? SOCK_STREAM : SOCK_DGRAM, 0);
    DEMI_CHECK(fd >= 0);
    if (local) {
      const sockaddr_in sa = ToSockaddr(*local);
      DEMI_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0);
    }
    const sockaddr_in sa = ToSockaddr(peer);
    // Retry connect briefly: the server thread may still be binding.
    int rc = -1;
    for (int attempt = 0; attempt < 200 && rc != 0; attempt++) {
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
      if (rc != 0) {
        ::usleep(5000);
      }
    }
    DEMI_CHECK_MSG(rc == 0, "load driver: posix connect failed");
    if (type == SocketType::kStream) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    sockets_.push_back({fd, POLLIN, 0});
  }
}

PosixTransport::~PosixTransport() {
  for (const pollfd& socket : sockets_) {
    ::close(socket.fd);
  }
}

bool PosixTransport::Send(size_t peer, std::span<const uint8_t> bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(sockets_[peer].fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

std::optional<size_t> PosixTransport::Receive(DurationNs timeout, Inbox& inbox) {
  const int ms = static_cast<int>((timeout + kMillisecond - 1) / kMillisecond);
  if (::poll(sockets_.data(), sockets_.size(), ms) <= 0) {
    return std::nullopt;
  }
  for (size_t i = 0; i < sockets_.size(); i++) {
    if (sockets_[i].revents != 0) {
      const ssize_t n = ::recv(sockets_[i].fd, rx_.data(), rx_.size(), 0);
      if (n <= 0) {
        return std::nullopt;
      }
      inbox[i].insert(inbox[i].end(), rx_.data(), rx_.data() + n);
      return i;
    }
  }
  return std::nullopt;
}

// --- Codecs ---

bool KvCodec::Start(Transport& link) {
  char key[32];
  const int klen = std::snprintf(key, sizeof(key), "key:%012llu",
                                 static_cast<unsigned long long>(rng_.NextBounded(
                                     workload_.num_keys)));
  uint8_t frame[4096];
  const size_t n =
      KvEncodeRequest(workload_.do_sets ? KvOp::kSet : KvOp::kGet, std::string_view(key, klen),
                      workload_.do_sets ? std::string_view(value_) : "", frame, sizeof(frame));
  DEMI_CHECK(n > 0);
  return link.Send(0, {frame, n});
}

size_t KvCodec::ReplyLength(std::span<const uint8_t> bytes) const { return KvFrameLength(bytes); }

RequestCodec::Outcome KvCodec::OnReply(size_t, std::span<const uint8_t> reply, Transport&) {
  KvResponseView resp;
  return KvParseResponse(reply.subspan(4), &resp) ? Outcome::kDone : Outcome::kFailed;
}

YcsbCodec::YcsbCodec(const YcsbWorkload& workload)
    : workload_(workload),
      zipf_(workload.num_keys, kYcsbZipfTheta, workload.seed),
      rng_(workload.seed * 31 + 1),
      value_(workload.value_size, 'v') {}

bool YcsbCodec::Start(Transport& link) {
  DEMI_CHECK(workload_.write_quorum >= 1 && workload_.write_quorum <= link.peers());
  owed_.resize(link.peers());
  key_ = MakeYcsbKey(zipf_.Next(), workload_.key_size);
  value_[txn_ % value_.size()] = static_cast<char>('a' + (txn_ % 26));
  txn_++;
  reading_ = true;
  acks_ = 0;
  pending_ = 0;
  const size_t reader = rng_.NextBounded(link.peers());
  uint8_t frame[4096];
  return Send(link, reader, {frame, KvEncodeRequest(KvOp::kGet, key_, "", frame, sizeof(frame))});
}

bool YcsbCodec::Send(Transport& link, size_t replica, std::span<const uint8_t> frame) {
  if (!link.Send(replica, frame)) {
    return false;
  }
  owed_[replica].push_back(txn_);
  pending_++;
  return true;
}

size_t YcsbCodec::ReplyLength(std::span<const uint8_t> bytes) const {
  return KvFrameLength(bytes);
}

RequestCodec::Outcome YcsbCodec::OnReply(size_t peer, std::span<const uint8_t> reply,
                                         Transport& link) {
  if (owed_[peer].empty()) {
    return Outcome::kFailed;  // a reply to no request: the replica broke the protocol
  }
  const uint64_t txn = owed_[peer].front();
  owed_[peer].pop_front();
  if (txn != txn_) {
    return Outcome::kPending;  // a SET reply to a transaction that already ended
  }
  pending_--;
  KvResponseView resp;
  const bool parsed = KvParseResponse(reply.subspan(4), &resp);
  if (reading_) {
    if (!parsed) {
      return Outcome::kFailed;
    }
    // Modify + write: SET on every replica, commit at the write quorum.
    reading_ = false;
    uint8_t frame[4096];
    const size_t n = KvEncodeRequest(KvOp::kSet, key_, value_, frame, sizeof(frame));
    for (size_t p = 0; p < link.peers(); p++) {
      (void)Send(link, p, {frame, n});  // an unsent SET is an ack that never comes
    }
  } else if (parsed && resp.status == KvStatus::kOk) {
    acks_++;
  }
  if (acks_ >= workload_.write_quorum) {
    return Outcome::kDone;
  }
  return acks_ + pending_ < workload_.write_quorum ? Outcome::kFailed : Outcome::kPending;
}

// --- The driver ---

namespace {

// Datagrams are fire-and-forget: sends requests until one is answered, then drains duplicate
// replies to the extra probes, so a not-yet-bound peer or a startup drop cannot wedge the
// measured loop. Returns false if 200 probes went unanswered.
bool Probe(Transport& link, RequestCodec& codec) {
  Transport::Inbox discard(link.peers());
  for (int probe = 0; probe < 200; probe++) {
    if (!codec.Start(link) || !link.Receive(20 * kMillisecond, discard)) {
      continue;
    }
    while (link.Receive(2 * kMillisecond, discard)) {
    }
    return true;
  }
  return false;
}

}  // namespace

LoadResult RunLoad(Transport& link, RequestCodec& codec, const LoadOptions& options) {
  if (link.datagram()) {
    DEMI_CHECK_MSG(Probe(link, codec), "load driver: datagram peer unreachable");
  }
  DEMI_CHECK(options.window >= 1);
  LoadResult result;
  Clock& clock = link.clock();
  const uint64_t total = options.warmup + options.operations;
  std::deque<TimeNs> open;  // start times of the operations in flight, oldest first
  Transport::Inbox inbox(link.peers());
  uint64_t started = 0;
  uint64_t ended = 0;
  TimeNs measure_start = clock.Now();
  auto end_op = [&](TimeNs start, bool ok) {
    if (!ok) {
      result.errors++;
    } else if (ended >= options.warmup) {
      result.latency.Record(clock.Now() - start);
    }
    if (++ended == options.warmup) {
      measure_start = clock.Now();
    }
  };
  auto on_reply = [&](size_t peer, std::span<const uint8_t> reply) {
    if (open.empty()) {
      return;  // a duplicate datagram with no operation left to claim it
    }
    const RequestCodec::Outcome outcome = codec.OnReply(peer, reply, link);
    if (outcome != RequestCodec::Outcome::kPending) {
      end_op(open.front(), outcome == RequestCodec::Outcome::kDone);
      open.pop_front();
    }
  };

  while (ended < total) {
    while (started < total && open.size() < options.window) {
      const TimeNs start = clock.Now();
      started++;
      if (codec.Start(link)) {
        open.push_back(start);
      } else {
        end_op(start, false);
      }
    }
    if (open.empty()) {
      continue;  // every operation left failed to start: nothing to wait for
    }
    const std::optional<size_t> peer = link.Receive(link.timeout(), inbox);
    if (!peer) {
      if (!link.datagram()) {
        break;  // the byte stream is out of sync; what is left counts as errors below
      }
      end_op(open.front(), false);  // lost
      open.pop_front();
      continue;
    }
    std::vector<uint8_t>& bytes = inbox[*peer];
    if (link.datagram()) {
      on_reply(*peer, bytes);
      bytes.clear();
      continue;
    }
    size_t off = 0;
    while (const size_t n = codec.ReplyLength(std::span(bytes).subspan(off))) {
      on_reply(*peer, std::span(bytes).subspan(off, n));
      off += n;
    }
    bytes.erase(bytes.begin(), bytes.begin() + static_cast<long>(off));
  }
  result.errors += total - ended;
  result.elapsed = clock.Now() - measure_start;
  return result;
}

}  // namespace demi
