// Echo server and client (paper §7.2): the microbenchmark application for Figures 5-9.
//
// The PDPIX variants are libOS-agnostic — the same code runs over Catnap, Catnip (UDP or TCP)
// and Catmint, which is the portability claim of the paper. The server optionally logs every
// message to a storage queue before replying (Figure 7's configuration). POSIX variants provide
// the kernel baseline and the Table 3 LoC comparison.

#ifndef SRC_APPS_ECHO_H_
#define SRC_APPS_ECHO_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/core/libos.h"

namespace demi {

class ShardGroup;

struct EchoServerOptions {
  SocketAddress listen;
  SocketType type = SocketType::kStream;
  // If non-empty, open a storage queue and push every message to it (synchronously, before
  // replying) — the Figure 7 configuration. Requires a libOS with storage support.
  bool log_to_disk = false;
  std::string log_path = "echo.log";
  // Isolation domain the listening socket (and thus every accepted connection) is charged to.
  // kDefaultTenant leaves the server in the unbudgeted control domain (docs/TENANCY.md).
  TenantId tenant = kDefaultTenant;
};

struct EchoServerStats {
  uint64_t requests = 0;
  uint64_t bytes = 0;
  uint64_t connections = 0;
  uint64_t log_failures = 0;  // log appends that failed terminally (message echoed, not durable)
};

// Pumpable echo server: arm tokens at construction, then call Pump() (non-blocking) each loop
// iteration alongside LibOS::PollOnce(). This form supports both a dedicated server thread and
// single-thread "duet" benchmarking via LibOS::SetExternalPump.
class EchoServerApp {
 public:
  EchoServerApp(LibOS& os, const EchoServerOptions& options);

  // Processes every completed token once; returns the number of requests served this call.
  size_t Pump();

  const EchoServerStats& stats() const { return stats_; }

 private:
  void HandleAccept(size_t index, QResult& r);
  void HandlePop(size_t index, QResult& r);
  // Replaces tokens_[index] with a fresh pop on `qd`, or drops the connection.
  void RearmPop(size_t index, QueueDesc qd);

  LibOS& os_;
  EchoServerOptions options_;
  EchoServerStats stats_;
  QueueDesc log_qd_ = kInvalidQd;
  std::vector<QToken> tokens_;
};

// Runs until `stop` becomes true. Serves any number of concurrent connections.
void RunEchoServer(LibOS& os, const EchoServerOptions& options, std::atomic<bool>& stop,
                   EchoServerStats* stats = nullptr);

// Multi-worker echo over a ShardGroup (paper §7 Fig. 9): every shard runs its own
// EchoServerApp listening on the same port — RSS steers each connection to one shard, like
// SO_REUSEPORT on kernel stacks. Starts the group's workers and returns; the caller later
// calls group.RequestStop() + Join(), after which `per_shard` (if given) holds each shard's
// stats.
void StartShardedEchoServer(ShardGroup& group, const EchoServerOptions& options,
                            std::vector<EchoServerStats>* per_shard = nullptr);

struct EchoClientOptions {
  SocketAddress server;
  SocketType type = SocketType::kStream;
  size_t message_size = 64;
  uint64_t iterations = 10000;
  uint64_t warmup = 100;
};

struct EchoClientResult {
  Histogram rtt;  // nanoseconds per echo round trip
  uint64_t errors = 0;
};

// Successive pops on one queue that never abandon a pop. A pop whose wait timed out is NOT
// cancelled: its coroutine stays queued on the socket and will consume the next datagram, so
// Next() re-waits that token instead of popping again (otherwise the stolen datagram makes the
// next pop time out too — "every datagram delivered, one qtoken never redeemed").
class PopStream {
 public:
  PopStream(LibOS& os, QueueDesc qd) : os_(os), qd_(qd) {}

  // Waits up to `timeout` for the next pop result on the queue.
  Result<QResult> Next(DurationNs timeout);

  // Datagrams are fire-and-forget: calls `send_probe` (false = not sent) until a reply pops,
  // then drains duplicate replies to extra probes, so a not-yet-bound peer or a startup drop
  // cannot wedge a measured closed loop. Returns false if 200 probes went unanswered.
  bool Probe(const std::function<bool()>& send_probe);

 private:
  LibOS& os_;
  QueueDesc qd_;
  QToken carried_ = kInvalidQToken;
};

// Closed-loop echo client: push + wait + pop + wait, recording RTTs.
EchoClientResult RunEchoClient(LibOS& os, const EchoClientOptions& options);

// POSIX (kernel sockets, blocking) echo pair: the "Linux" baseline of Figures 5/7 and the
// POSIX row of Table 3. Returns like their PDPIX counterparts.
void RunPosixEchoServer(const EchoServerOptions& options, std::atomic<bool>& stop,
                        EchoServerStats* stats = nullptr);
EchoClientResult RunPosixEchoClient(const EchoClientOptions& options);

}  // namespace demi

#endif  // SRC_APPS_ECHO_H_
