// Closed-loop load driver: the one client loop behind every app benchmark (echo, windowed
// echo, MiniKv, TxnStore's YCSB-F and the UDP relay's traffic generator).
//
// A run combines four parts:
//   - a request codec: what one operation sends, how its replies are framed, and which replies
//     end it (echo bytes, a MiniKv frame, a YCSB-F read-modify-write transaction);
//   - a transport: a PDPIX queue on any libOS, a POSIX socket (the kernel baseline), or
//     TxnStore's raw-RDMA QP (src/apps/txnstore.h) — the same workload runs unchanged over each,
//     which is the paper's portability claim (§7);
//   - a window of operations kept in flight;
//   - one latency histogram.
//
// Every receive is bounded by the transport's kind. A datagram not answered within 200 ms is
// lost: its operation counts as an error and the run goes on. A byte stream silent for 5 s is
// out of sync: the run ends and every operation left over counts as an error.

#ifndef SRC_APPS_LOAD_DRIVER_H_
#define SRC_APPS_LOAD_DRIVER_H_

#include <poll.h>

#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/libos.h"

namespace demi {

// Where requests go and replies come from. Peers are numbered 0..peers()-1.
class Transport {
 public:
  using Inbox = std::vector<std::vector<uint8_t>>;  // bytes received and not yet consumed, per peer

  // kDatagram: each receive is one whole message that may be lost. kStream: a reliable byte
  // stream whose receives may split or join replies.
  explicit Transport(SocketType type) : type_(type) {}
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  bool datagram() const { return type_ == SocketType::kDatagram; }
  virtual size_t peers() const = 0;
  virtual Clock& clock() = 0;
  // Sends one request to `peer`; false if it could not be sent.
  virtual bool Send(size_t peer, std::span<const uint8_t> bytes) = 0;
  // Waits at most `timeout` for bytes from any peer and appends them to `inbox[peer]`. Returns
  // that peer, or nullopt on timeout or a failed receive.
  virtual std::optional<size_t> Receive(DurationNs timeout, Inbox& inbox) = 0;

  // The bound on a measured operation's receive: a loss timeout for datagrams, a stall bound
  // for streams.
  DurationNs timeout() const { return datagram() ? 200 * kMillisecond : 5 * kSecond; }

 private:
  const SocketType type_;
};

// PDPIX transport over any libOS: one queue per peer, connected at construction (bound first to
// `local` if set: the relay generator binds the relay's target, so forwarded packets land on
// the socket that sent them). A receive arms a pop on every queue that has none; a wait that
// times out leaves its pop armed for the next receive, so no pop is ever abandoned. Completed
// pushes are redeemed without blocking; the destructor closes the queues and redeems every
// token still held.
class PdpixTransport final : public Transport {
 public:
  PdpixTransport(LibOS& os, SocketType type, std::vector<SocketAddress> peers,
                 std::optional<SocketAddress> local = std::nullopt);
  ~PdpixTransport() override;

  size_t peers() const override { return qds_.size(); }
  Clock& clock() override { return os_.clock(); }
  bool Send(size_t peer, std::span<const uint8_t> bytes) override;
  std::optional<size_t> Receive(DurationNs timeout, Inbox& inbox) override;

 private:
  LibOS& os_;
  std::vector<QueueDesc> qds_;
  std::vector<QToken> pops_;  // the armed pop per queue, or kInvalidQToken
  std::vector<QToken> pushes_;
};

// POSIX transport over kernel sockets (the "Linux" baseline rows), laid out like the PDPIX
// one. Waits with poll(), so a peer that accepts and never replies cannot hang the run.
class PosixTransport final : public Transport {
 public:
  PosixTransport(SocketType type, std::vector<SocketAddress> peers,
                 std::optional<SocketAddress> local = std::nullopt);
  ~PosixTransport() override;

  size_t peers() const override { return sockets_.size(); }
  Clock& clock() override { return clock_; }
  bool Send(size_t peer, std::span<const uint8_t> bytes) override;
  std::optional<size_t> Receive(DurationNs timeout, Inbox& inbox) override;

 private:
  MonotonicClock clock_;
  std::vector<pollfd> sockets_;  // one per peer
  std::vector<uint8_t> rx_;
};

// One operation's protocol. The driver calls Start for each new operation and OnReply for
// every whole reply in arrival order; operations end oldest first.
class RequestCodec {
 public:
  enum class Outcome { kPending, kDone, kFailed };

  virtual ~RequestCodec() = default;
  // Sends the next operation's first request(s); false if a send failed.
  virtual bool Start(Transport& link) = 0;
  // On a stream: the length of the whole reply at the front of `bytes`, or 0 if it is not all
  // there yet. Datagram replies are whole by construction.
  virtual size_t ReplyLength(std::span<const uint8_t> bytes) const = 0;
  // Consumes one reply from `peer`; may send follow-up requests.
  virtual Outcome OnReply(size_t peer, std::span<const uint8_t> reply, Transport& link) = 0;
};

// Echo: `message_size` bytes out, the same number back.
class EchoCodec final : public RequestCodec {
 public:
  explicit EchoCodec(size_t message_size) : message_(message_size, 0x5C) {}
  bool Start(Transport& link) override { return link.Send(0, message_); }
  size_t ReplyLength(std::span<const uint8_t> bytes) const override {
    return bytes.size() >= message_.size() ? message_.size() : 0;
  }
  Outcome OnReply(size_t, std::span<const uint8_t>, Transport&) override {
    return Outcome::kDone;
  }

 private:
  std::vector<uint8_t> message_;
};

// MiniKv: one SET (or GET) of a uniformly chosen key per operation (the redis-benchmark mix).
struct KvWorkload {
  uint64_t num_keys = 100'000;
  size_t value_size = 64;
  bool do_sets = true;  // false = GET-only run (after preloading)
  uint64_t seed = 1;
};

class KvCodec final : public RequestCodec {
 public:
  explicit KvCodec(const KvWorkload& workload)
      : workload_(workload), rng_(workload.seed), value_(workload.value_size, 'v') {}
  bool Start(Transport& link) override;
  size_t ReplyLength(std::span<const uint8_t> bytes) const override;
  Outcome OnReply(size_t peer, std::span<const uint8_t> reply, Transport& link) override;

 private:
  KvWorkload workload_;
  Rng rng_;
  std::string value_;
};

// YCSB-T workload F over MiniKv replicas (paper §7.6): GET a Zipf(0.99) key from one replica,
// then SET the modified value on every replica. A transaction commits once `write_quorum`
// replicas answered the SET with kOk, and fails once that can no longer happen. Replies that
// arrive after their transaction ended are read and dropped ahead of the next one's. Runs one
// transaction at a time (window 1), like the paper's closed-loop YCSB clients.
struct YcsbWorkload {
  size_t write_quorum = 2;
  uint64_t num_keys = 10'000;
  size_t key_size = 64;
  size_t value_size = 700;
  uint64_t seed = 7;
};

class YcsbCodec final : public RequestCodec {
 public:
  explicit YcsbCodec(const YcsbWorkload& workload);
  bool Start(Transport& link) override;
  size_t ReplyLength(std::span<const uint8_t> bytes) const override;
  Outcome OnReply(size_t peer, std::span<const uint8_t> reply, Transport& link) override;

 private:
  bool Send(Transport& link, size_t replica, std::span<const uint8_t> frame);

  YcsbWorkload workload_;
  ZipfGenerator zipf_;
  Rng rng_;
  std::string key_;
  std::string value_;
  uint64_t txn_ = 0;  // the current transaction's number
  bool reading_ = false;
  size_t acks_ = 0;
  size_t pending_ = 0;                      // the current transaction's unanswered requests
  std::vector<std::deque<uint64_t>> owed_;  // per replica: the transaction of each open request
};

struct LoadOptions {
  uint64_t operations = 10'000;  // measured operations
  uint64_t warmup = 0;           // operations run first and left out of the histogram
  size_t window = 1;             // operations kept in flight
};

struct LoadResult {
  Histogram latency;       // ns per measured operation that succeeded
  uint64_t errors = 0;     // operations, warm-up included, that failed, were lost or never ran
  DurationNs elapsed = 0;  // from the end of the warm-up to the last operation
  double OpsPerSec() const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(latency.count()) * static_cast<double>(kSecond) /
                              static_cast<double>(elapsed);
  }
};

// Runs warmup + operations through `codec` over `link`, keeping `window` in flight. On a
// datagram transport it first probes until a request is answered, so a peer that is still
// binding or a startup drop is not counted as a loss.
LoadResult RunLoad(Transport& link, RequestCodec& codec, const LoadOptions& options);

}  // namespace demi

#endif  // SRC_APPS_LOAD_DRIVER_H_
