// UDP relay (TURN-style) server (paper §7.4, Figure 10): forwards every datagram received on
// the relay port to a configured target — the data path of Azure's TURN relays, where
// per-packet CPU cost is what matters.
//
// Three variants reproduce Figure 10's comparison: the Demikernel PDPIX relay, a plain POSIX
// recvfrom/sendto relay ("Linux"), and a batched recvmmsg/sendmmsg relay standing in for the
// io_uring variant (liburing is not available offline; batched msg syscalls capture the same
// "fewer kernel crossings per packet" effect — see DESIGN.md §2).
//
// The traffic generator is the load driver's EchoCodec over a datagram transport whose socket
// is bound to the relay's target (src/apps/load_driver.h), so it is also the sink, as in §7.4's
// methodology.

#ifndef SRC_APPS_UDP_RELAY_H_
#define SRC_APPS_UDP_RELAY_H_

#include <atomic>
#include <vector>

#include "src/core/libos.h"

namespace demi {

struct RelayOptions {
  SocketAddress listen;
  SocketAddress target;
};

struct RelayStats {
  uint64_t forwarded = 0;
  uint64_t bytes = 0;
};

// Pumpable relay (see EchoServerApp for the pump pattern).
class UdpRelayApp {
 public:
  UdpRelayApp(LibOS& os, const RelayOptions& options);
  size_t Pump();  // non-blocking; returns packets forwarded
  const RelayStats& stats() const { return stats_; }

 private:
  LibOS& os_;
  RelayOptions options_;
  RelayStats stats_;
  QueueDesc sock_ = kInvalidQd;
  QToken pop_ = kInvalidQToken;
  std::vector<QToken> pushes_;  // forwarding pushes not done when issued
};

void RunUdpRelay(LibOS& os, const RelayOptions& options, std::atomic<bool>& stop,
                 RelayStats* stats = nullptr);
void RunPosixUdpRelay(const RelayOptions& options, std::atomic<bool>& stop,
                      RelayStats* stats = nullptr);
void RunBatchedPosixUdpRelay(const RelayOptions& options, std::atomic<bool>& stop,
                             RelayStats* stats = nullptr);

}  // namespace demi

#endif  // SRC_APPS_UDP_RELAY_H_
