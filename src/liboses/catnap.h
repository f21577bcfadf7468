// Catnap: the POSIX library OS (paper §6.1), for developing and testing µs-scale applications
// without kernel-bypass hardware.
//
// Implements PDPIX over real kernel sockets in non-blocking mode, *polling* read/write instead
// of sleeping in epoll — which is why Catnap has lower latency than a classic epoll loop but
// burns a core (the trade-off §7.3 measures). No memory-management integration is needed: POSIX
// I/O is copy-based, so buffers are plain DMA-heap allocations handed across the API.
//
// No PDPIX op blocks. An accept, connect or socket pop that would block is a qtoken
// in its queue's FIFO (LibOS::PendingOps). Catnap has no device events, so each waiting queue
// waits on one list the fast path notifies every poll and retries its oldest op once per poll.
// A TCP push writes inline while its queue has no unsent push; the rest joins the queue's FIFO
// of unsent pushes, which the fast path writes oldest first, apart from PendingOps so a blocked
// push never holds up a pop. Close completes pending accepts, connects and pops, and unsent
// pushes, with kCancelled, then closes the fd and erases the queue before it returns.
//
// Storage queues are files on the host filesystem with fsync-on-push durability, mirroring the
// paper's Linux/ext4 comparison configuration. Their pushes and pops complete synchronously.

#ifndef SRC_LIBOSES_CATNAP_H_
#define SRC_LIBOSES_CATNAP_H_

#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/libos.h"

namespace demi {

class Catnap final : public LibOS {
 public:
  explicit Catnap(Clock& clock);
  ~Catnap() override;

  Result<QueueDesc> Socket(SocketType type) override;
  [[nodiscard]] Status Bind(QueueDesc qd, SocketAddress local) override;
  [[nodiscard]] Status Listen(QueueDesc qd, int backlog) override;
  Result<QToken> Accept(QueueDesc qd) override;
  Result<QToken> Connect(QueueDesc qd, SocketAddress remote) override;
  [[nodiscard]] Status Close(QueueDesc qd) override;
  Result<QueueDesc> Open(std::string_view path) override;
  [[nodiscard]] Status Seek(QueueDesc qd, uint64_t offset) override;
  [[nodiscard]] Status Truncate(QueueDesc qd, uint64_t offset) override;
  Result<QToken> Push(QueueDesc qd, const Sgarray& sga) override;
  Result<QToken> PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) override;
  Result<QToken> Pop(QueueDesc qd) override;

  // Maximum bytes returned by one socket pop.
  static constexpr size_t kPopChunk = 64 * 1024;

 private:
  // LibOS reads queues_ and calls NextResult and WaitEvent.
  friend class LibOS;

  enum class QKind : uint8_t { kTcp, kTcpListener, kUdp, kFile };

  // A TCP push the socket has not fully taken; PDPIX lets the app free its buffers at once.
  struct UnsentPush {
    std::vector<Buffer> pinned;
    size_t written = 0;
    QToken qt = kInvalidQToken;
  };

  struct QueueState {
    QKind kind;
    int fd = -1;
    SocketType type = SocketType::kStream;
    bool connected = false;
    bool closing = false;           // set inside Close, which completes `pending` and `unsent`
    PendingOps pending;             // accepts, connects and pops waiting for the socket
    std::deque<UnsentPush> unsent;  // TCP pushes, oldest first
    uint64_t read_cursor = 0;       // files
  };

  // Allocates `op`'s qtoken on `qd`, completed with `status`.
  QToken CompleteNow(QueueDesc qd, OpCode op, Status status);

  // Waiting ops (LibOS::PendingOps): one non-blocking syscall; nullopt while it would block.
  std::optional<QResult> NextResult(QueueState& q, OpCode op);
  WaitList& WaitEvent(QueueState& /*q*/, OpCode /*op*/) { return next_poll_; }

  // Writes `q`'s unsent pushes oldest first until the socket is full, completing each push's
  // qtoken when its last byte is written.
  void WriteUnsent(QueueState& q);

  void FastPath(TimeNs now) override;

  QueueDesc InstallFd(int fd, QKind kind, SocketType type);

  std::unordered_map<QueueDesc, QueueState> queues_;
  std::vector<QueueDesc> unsent_queues_;  // queues with unsent pushes
};

}  // namespace demi

#endif  // SRC_LIBOSES_CATNAP_H_
