// Echo server (paper §7.2): the microbenchmark application for Figures 5-9. Its clients are
// the load driver's EchoCodec (src/apps/load_driver.h).
//
// The PDPIX server is libOS-agnostic — the same code runs over Catnap, Catnip (UDP or TCP)
// and Catmint, which is the portability claim of the paper. It optionally logs every message
// to a storage queue before replying (Figure 7's configuration). The POSIX server provides the
// kernel baseline and the Table 3 LoC comparison.

#ifndef SRC_APPS_ECHO_H_
#define SRC_APPS_ECHO_H_

#include <atomic>
#include <string>
#include <vector>

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

// POSIX (kernel sockets, blocking) echo server: the "Linux" baseline of Figures 5/7 and the
// POSIX row of Table 3. Returns like its PDPIX counterpart.
void RunPosixEchoServer(const EchoServerOptions& options, std::atomic<bool>& stop,
                        EchoServerStats* stats = nullptr);

}  // namespace demi

#endif  // SRC_APPS_ECHO_H_
