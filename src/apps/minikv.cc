#include "src/apps/minikv.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <iterator>

#include "src/common/logging.h"
#include "src/core/shard_group.h"

namespace demi {

namespace {

constexpr size_t kReqHeader = 1 + 2 + 4;   // op, klen, vlen
constexpr size_t kRespHeader = 1 + 4;      // status, vlen

void PutLe32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint32_t GetLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void PutLe16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
uint16_t GetLe16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
// A default-constructed view's data() is null; memcpy from null is undefined even for 0 bytes.
void PutBytes(uint8_t* p, std::string_view bytes) {
  if (!bytes.empty()) {
    std::memcpy(p, bytes.data(), bytes.size());
  }
}

}  // namespace

size_t KvEncodeRequest(KvOp op, std::string_view key, std::string_view value, uint8_t* out,
                       size_t out_cap) {
  const size_t frame = kReqHeader + key.size() + value.size();
  const size_t total = 4 + frame;
  if (total > out_cap) {
    return 0;
  }
  PutLe32(out, static_cast<uint32_t>(frame));
  out[4] = static_cast<uint8_t>(op);
  PutLe16(out + 5, static_cast<uint16_t>(key.size()));
  PutLe32(out + 7, static_cast<uint32_t>(value.size()));
  PutBytes(out + 11, key);
  PutBytes(out + 11 + key.size(), value);
  return total;
}

size_t KvEncodeResponse(KvStatus status, std::string_view value, uint8_t* out, size_t out_cap) {
  const size_t frame = kRespHeader + value.size();
  const size_t total = 4 + frame;
  if (total > out_cap) {
    return 0;
  }
  PutLe32(out, static_cast<uint32_t>(frame));
  out[4] = static_cast<uint8_t>(status);
  PutLe32(out + 5, static_cast<uint32_t>(value.size()));
  PutBytes(out + 9, value);
  return total;
}

bool KvParseRequest(std::span<const uint8_t> frame, KvRequestView* out) {
  if (frame.size() < kReqHeader) {
    return false;
  }
  const uint8_t op = frame[0];
  if (op < 1 || op > 3) {
    return false;
  }
  const uint16_t klen = GetLe16(frame.data() + 1);
  const uint32_t vlen = GetLe32(frame.data() + 3);
  if (frame.size() != kReqHeader + klen + vlen) {
    return false;
  }
  out->op = static_cast<KvOp>(op);
  out->key = std::string_view(reinterpret_cast<const char*>(frame.data() + kReqHeader), klen);
  out->value =
      std::string_view(reinterpret_cast<const char*>(frame.data() + kReqHeader + klen), vlen);
  return true;
}

bool KvParseResponse(std::span<const uint8_t> frame, KvResponseView* out) {
  if (frame.size() < kRespHeader) {
    return false;
  }
  const uint32_t vlen = GetLe32(frame.data() + 1);
  if (frame.size() != kRespHeader + vlen) {
    return false;
  }
  out->status = static_cast<KvStatus>(frame[0]);
  out->value =
      std::string_view(reinterpret_cast<const char*>(frame.data() + kRespHeader), vlen);
  return true;
}

namespace {

// The in-memory store: values live in the DMA-capable heap so GET responses go out zero-copy
// and SET overwrites are safe under UAF protection (no update in place — old values are freed,
// and the heap defers recycling while a previous GET's push still references them).
class KvHeapStore {
 public:
  explicit KvHeapStore(LibOS& os) : os_(os) {}
  ~KvHeapStore() {
    for (auto& [k, v] : map_) {
      os_.DmaFree(v.ptr);
    }
  }

  void Set(std::string_view key, std::string_view value) {
    void* ptr = os_.DmaMalloc(value.size() == 0 ? 1 : value.size());
    std::memcpy(ptr, value.data(), value.size());
    auto [it, inserted] = map_.try_emplace(std::string(key));
    if (!inserted) {
      os_.DmaFree(it->second.ptr);
    }
    it->second = Value{ptr, static_cast<uint32_t>(value.size())};
  }

  bool Get(std::string_view key, void** ptr, uint32_t* len) const {
    auto it = map_.find(std::string(key));
    if (it == map_.end()) {
      return false;
    }
    *ptr = it->second.ptr;
    *len = it->second.len;
    return true;
  }

  bool Del(std::string_view key) {
    auto it = map_.find(std::string(key));
    if (it == map_.end()) {
      return false;
    }
    os_.DmaFree(it->second.ptr);
    map_.erase(it);
    return true;
  }

 private:
  struct Value {
    void* ptr;
    uint32_t len;
  };
  LibOS& os_;
  std::unordered_map<std::string, Value> map_;
};

// Extracts complete length-prefixed frames from an accumulation buffer.
template <typename FrameFn>
void DrainFrames(std::vector<uint8_t>& acc, FrameFn&& fn) {
  size_t off = 0;
  while (acc.size() - off >= 4) {
    const uint32_t frame_len = GetLe32(acc.data() + off);
    if (acc.size() - off - 4 < frame_len) {
      break;
    }
    fn(std::span<const uint8_t>(acc.data() + off + 4, frame_len));
    off += 4 + frame_len;
  }
  if (off > 0) {
    acc.erase(acc.begin(), acc.begin() + static_cast<long>(off));
  }
}

}  // namespace

struct MiniKvServerApp::Impl {
  Impl(LibOS& libos, MiniKvStats& app_stats) : os(libos), stats(app_stats), store(libos) {}
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() {
    for (auto& [qd, cs] : conns) {
      for (const Reply& reply : cs.replies) {
        if (reply.buf != nullptr) {
          os.DmaFree(reply.buf);
        }
      }
    }
  }

  // A reply that waits on its connection: a SET's until its AOF push is durable, and any
  // reply behind one, so replies leave in request order.
  struct Reply {
    QToken aof = kInvalidQToken;  // a SET: its AOF push, whose result sets the reply's status
    void* buf = nullptr;          // the encoded reply, once known, in a buffer the reply owns
    uint32_t len = 0;
  };
  struct ConnState {
    std::vector<uint8_t> acc;
    std::deque<Reply> replies;  // oldest first
    bool ended = false;         // its pops ended: close it once the replies are out
  };

  // Sends `sga` on `qd` now, or, behind a reply that waits, queues a copy: the copy holds no
  // store value that a later SET may free.
  void Respond(QueueDesc qd, ConnState& cs, const Sgarray& sga) {
    if (cs.replies.empty()) {
      (void)os.Push(qd, sga);
      return;
    }
    Reply& reply = cs.replies.emplace_back();
    reply.len = static_cast<uint32_t>(sga.TotalBytes());
    reply.buf = os.DmaMalloc(reply.len);
    uint8_t* dst = static_cast<uint8_t*>(reply.buf);
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      std::memcpy(dst, sga.segs[i].buf, sga.segs[i].len);
      dst += sga.segs[i].len;
    }
    deferred++;
  }

  void RespondStatus(QueueDesc qd, ConnState& cs, KvStatus status) {
    uint8_t hdr[4 + kRespHeader];
    const size_t n = KvEncodeResponse(status, "", hdr, sizeof(hdr));
    void* out = os.DmaMalloc(n);
    std::memcpy(out, hdr, n);
    Respond(qd, cs, Sgarray::Of(out, static_cast<uint32_t>(n)));
    os.DmaFree(out);
  }

  // Sends `cs`'s replies, oldest first, until one waits for a SET that is not durable yet. A
  // connection whose pops ended closes once its last reply is out; returns whether it did.
  bool Flush(QueueDesc qd, ConnState& cs) {
    while (!cs.replies.empty()) {
      Reply& reply = cs.replies.front();
      if (reply.aof != kInvalidQToken) {
        if (!os.IsDone(reply.aof)) {
          return false;
        }
        // A terminal append failure (e.g. disk retry budget exhausted under injected faults)
        // degrades to a kError reply: the value is live in memory but the client knows it
        // isn't durable.
        auto r = os.TryTake(reply.aof);
        const bool durable = r.ok() && r->status == Status::kOk;
        if (!durable) {
          stats.aof_failures++;
        }
        uint8_t hdr[4 + kRespHeader];
        reply.len = static_cast<uint32_t>(KvEncodeResponse(
            durable ? KvStatus::kOk : KvStatus::kError, "", hdr, sizeof(hdr)));
        reply.buf = os.DmaMalloc(reply.len);
        std::memcpy(reply.buf, hdr, reply.len);
      }
      (void)os.Push(qd, Sgarray::Of(reply.buf, reply.len));
      os.DmaFree(reply.buf);
      cs.replies.pop_front();
      deferred--;
    }
    if (cs.ended) {
      (void)os.Close(qd);
    }
    return cs.ended;
  }

  // Ends `qd` once its pops end: at once, or after its waiting replies.
  void End(QueueDesc qd) {
    auto it = conns.find(qd);
    it->second.ended = true;
    if (Flush(qd, it->second)) {
      conns.erase(it);
    }
  }

  LibOS& os;
  MiniKvStats& stats;
  KvHeapStore store;
  QueueDesc aof_qd = kInvalidQd;
  std::unordered_map<QueueDesc, ConnState> conns;
  std::vector<QToken> tokens;
  size_t deferred = 0;  // replies waiting, across connections
};

MiniKvServerApp::MiniKvServerApp(LibOS& os, const MiniKvOptions& options)
    : os_(os), options_(options), impl_(std::make_unique<Impl>(os, stats_)) {
  if (options.persist) {
    auto aof = os.Open(options.aof_path);
    DEMI_CHECK_MSG(aof.ok(), "minikv: cannot open AOF queue");
    impl_->aof_qd = *aof;
  }
  auto sock = os.Socket(SocketType::kStream);
  DEMI_CHECK(sock.ok());
  DEMI_CHECK(os.Bind(*sock, options.listen) == Status::kOk);
  DEMI_CHECK(os.Listen(*sock, 64) == Status::kOk);
  auto accept_qt = os.Accept(*sock);
  DEMI_CHECK(accept_qt.ok());
  impl_->tokens.push_back(*accept_qt);
}

MiniKvServerApp::~MiniKvServerApp() = default;

size_t MiniKvServerApp::Pump() {
  Impl& im = *impl_;
  if (im.deferred > 0) {
    for (auto it = im.conns.begin(); it != im.conns.end();) {
      it = im.Flush(it->first, it->second) ? im.conns.erase(it) : std::next(it);
    }
  }
  size_t served = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t index = 0; index < im.tokens.size(); index++) {
      if (!os_.IsDone(im.tokens[index])) {
        continue;
      }
      auto result = os_.TryTake(im.tokens[index]);
      if (!result.ok()) {
        continue;
      }
      progress = true;
      QResult& r = *result;
      if (r.opcode == OpCode::kAccept) {
        if (r.status == Status::kOk) {
          stats_.connections++;
          im.conns[r.new_qd] = Impl::ConnState{};
          auto pop_qt = os_.Pop(r.new_qd);
          if (pop_qt.ok()) {
            im.tokens.push_back(*pop_qt);
          }
          auto next_accept = os_.Accept(r.qd);
          DEMI_CHECK(next_accept.ok());
          im.tokens[index] = *next_accept;
        } else {
          im.tokens.erase(im.tokens.begin() + static_cast<long>(index));
        }
        break;
      }
      // Pop on a connection.
      const QueueDesc qd = r.qd;
      if (r.status != Status::kOk) {
        im.End(qd);
        im.tokens.erase(im.tokens.begin() + static_cast<long>(index));
        break;
      }
      Impl::ConnState& cs = im.conns[qd];
      for (uint32_t i = 0; i < r.sga.num_segs; i++) {
        const uint8_t* p = static_cast<const uint8_t*>(r.sga.segs[i].buf);
        cs.acc.insert(cs.acc.end(), p, p + r.sga.segs[i].len);
      }
      os_.FreeSga(r.sga);

      DrainFrames(cs.acc, [&](std::span<const uint8_t> frame) {
        served++;
        KvRequestView req;
        if (!KvParseRequest(frame, &req)) {
          im.RespondStatus(qd, cs, KvStatus::kError);
          return;
        }
        switch (req.op) {
          case KvOp::kSet: {
            stats_.sets++;
            im.store.Set(req.key, req.value);
            if (im.aof_qd == kInvalidQd) {
              im.RespondStatus(qd, cs, KvStatus::kOk);
              break;
            }
            // Durable before acknowledged: append the raw request frame (fsync-equivalent);
            // the reply waits for the push, so the server serves other requests meanwhile.
            QToken aof = kInvalidQToken;
            void* rec = os_.DmaMalloc(frame.size());
            if (rec != nullptr) {
              std::memcpy(rec, frame.data(), frame.size());
              auto aof_push =
                  os_.Push(im.aof_qd, Sgarray::Of(rec, static_cast<uint32_t>(frame.size())));
              os_.DmaFree(rec);
              if (aof_push.ok()) {
                aof = *aof_push;
              }
            }
            if (aof == kInvalidQToken) {
              stats_.aof_failures++;
              im.RespondStatus(qd, cs, KvStatus::kError);
              break;
            }
            cs.replies.push_back(Impl::Reply{aof});
            im.deferred++;
            break;
          }
          case KvOp::kGet: {
            stats_.gets++;
            void* vptr = nullptr;
            uint32_t vlen = 0;
            if (im.store.Get(req.key, &vptr, &vlen)) {
              stats_.hits++;
              // Zero-copy GET: header segment + the stored value straight from the heap.
              const uint32_t frame_len = static_cast<uint32_t>(kRespHeader + vlen);
              void* out = os_.DmaMalloc(4 + kRespHeader);
              uint8_t* op = static_cast<uint8_t*>(out);
              PutLe32(op, frame_len);
              op[4] = static_cast<uint8_t>(KvStatus::kOk);
              PutLe32(op + 5, vlen);
              Sgarray sga;
              sga.num_segs = 2;
              sga.segs[0] = {out, 4 + kRespHeader};
              sga.segs[1] = {vptr, vlen};
              im.Respond(qd, cs, sga);
              os_.DmaFree(out);  // header freed; the stored value stays owned by the store
            } else {
              im.RespondStatus(qd, cs, KvStatus::kNotFound);
            }
            break;
          }
          case KvOp::kDel: {
            stats_.dels++;
            im.RespondStatus(qd, cs, im.store.Del(req.key) ? KvStatus::kOk : KvStatus::kNotFound);
            break;
          }
        }
      });
      (void)im.Flush(qd, cs);
      auto pop_qt = os_.Pop(qd);
      if (pop_qt.ok()) {
        im.tokens[index] = *pop_qt;
      } else {
        im.End(qd);
        im.tokens.erase(im.tokens.begin() + static_cast<long>(index));
      }
      break;
    }
  }
  return served;
}

void RunMiniKvServer(LibOS& os, const MiniKvOptions& options, std::atomic<bool>& stop,
                     MiniKvStats* stats) {
  MiniKvServerApp app(os, options);
  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    os.PollOnce();
    app.Pump();
  }
  if (stats != nullptr) {
    *stats = app.stats();
  }
}

void StartShardedMiniKvServer(ShardGroup& group, const MiniKvOptions& options,
                              std::vector<MiniKvStats>* per_shard) {
  if (per_shard != nullptr) {
    per_shard->assign(group.num_workers(), MiniKvStats{});
  }
  group.Start([&group, options, per_shard](size_t shard_id, Catnip& os) {
    MiniKvServerApp app(os, options);
    group.ServeLoop(os, [&app] { app.Pump(); });
    if (per_shard != nullptr) {
      (*per_shard)[shard_id] = app.stats();  // distinct slot per worker; read after Join
    }
  });
}

// --- POSIX variants ---

namespace {

sockaddr_in KvSockaddr(SocketAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip.value);
  sa.sin_port = htons(addr.port);
  return sa;
}

bool WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

void RunPosixMiniKvServer(const MiniKvOptions& options, std::atomic<bool>& stop,
                          MiniKvStats* stats) {
  MiniKvStats local;
  std::unordered_map<std::string, std::string> store;
  int aof_fd = -1;
  if (options.persist) {
    aof_fd = ::open(options.aof_path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    DEMI_CHECK(aof_fd >= 0);
  }
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DEMI_CHECK(listen_fd >= 0);
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa = KvSockaddr(options.listen);
  DEMI_CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0);
  DEMI_CHECK(::listen(listen_fd, 64) == 0);

  std::unordered_map<int, std::vector<uint8_t>> conns;
  std::vector<uint8_t> rx(64 * 1024);
  std::vector<uint8_t> tx;

  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    fd_set rfds;
    FD_ZERO(&rfds);
    FD_SET(listen_fd, &rfds);
    int maxfd = listen_fd;
    for (const auto& [fd, acc] : conns) {
      FD_SET(fd, &rfds);
      maxfd = std::max(maxfd, fd);
    }
    timeval tv{0, 2000};
    if (::select(maxfd + 1, &rfds, nullptr, nullptr, &tv) <= 0) {
      continue;
    }
    if (FD_ISSET(listen_fd, &rfds)) {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn >= 0) {
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns[conn] = {};
        local.connections++;
      }
    }
    std::vector<int> closed;
    for (auto& [fd, acc] : conns) {
      if (!FD_ISSET(fd, &rfds)) {
        continue;
      }
      const ssize_t n = ::read(fd, rx.data(), rx.size());
      if (n <= 0) {
        closed.push_back(fd);
        continue;
      }
      acc.insert(acc.end(), rx.data(), rx.data() + n);
      tx.clear();
      DrainFrames(acc, [&](std::span<const uint8_t> frame) {
        KvRequestView req;
        uint8_t buf[64 * 1024];
        if (!KvParseRequest(frame, &req)) {
          const size_t m = KvEncodeResponse(KvStatus::kError, "", buf, sizeof(buf));
          tx.insert(tx.end(), buf, buf + m);
          return;
        }
        switch (req.op) {
          case KvOp::kSet: {
            local.sets++;
            store[std::string(req.key)] = std::string(req.value);
            if (aof_fd >= 0) {
              DEMI_CHECK(::write(aof_fd, frame.data(), frame.size()) ==
                         static_cast<ssize_t>(frame.size()));
              DEMI_CHECK(::fsync(aof_fd) == 0);
            }
            const size_t m = KvEncodeResponse(KvStatus::kOk, "", buf, sizeof(buf));
            tx.insert(tx.end(), buf, buf + m);
            break;
          }
          case KvOp::kGet: {
            local.gets++;
            auto it = store.find(std::string(req.key));
            if (it != store.end()) {
              local.hits++;
              const size_t m = KvEncodeResponse(KvStatus::kOk, it->second, buf, sizeof(buf));
              tx.insert(tx.end(), buf, buf + m);
            } else {
              const size_t m = KvEncodeResponse(KvStatus::kNotFound, "", buf, sizeof(buf));
              tx.insert(tx.end(), buf, buf + m);
            }
            break;
          }
          case KvOp::kDel: {
            local.dels++;
            const KvStatus st =
                store.erase(std::string(req.key)) > 0 ? KvStatus::kOk : KvStatus::kNotFound;
            const size_t m = KvEncodeResponse(st, "", buf, sizeof(buf));
            tx.insert(tx.end(), buf, buf + m);
            break;
          }
        }
      });
      if (!tx.empty() && !WriteAll(fd, tx.data(), tx.size())) {
        closed.push_back(fd);
      }
    }
    for (int fd : closed) {
      ::close(fd);
      conns.erase(fd);
    }
  }
  for (auto& [fd, acc] : conns) {
    ::close(fd);
  }
  ::close(listen_fd);
  if (aof_fd >= 0) {
    ::close(aof_fd);
  }
  if (stats != nullptr) {
    *stats = local;
  }
}

}  // namespace demi
