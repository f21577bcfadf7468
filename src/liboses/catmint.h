// Catmint: the RDMA library OS (paper §6.2), over the simulated RDMA device.
//
// The device provides ordered, reliable message delivery (like an RDMA HCA), so Catmint is
// thin: it multiplexes PDPIX connections over one shared, well-known queue pair per device
// (one QP per connection was unaffordably slow, §6.2) and adds message-based credit flow
// control. The receiver advances the sender's window by *one-sided RDMA writes* into the
// sender's registered credit counter, exactly as the paper describes; the fast path keeps
// receive buffers posted and publishes consumption in the poll that consumed them.
//
// No PDPIX op gets a coroutine. A push sends inline while it has credits; otherwise it waits in
// its connection's blocked-send queue, and the fast path's per-poll credit scan sends it once
// the peer's one-sided write returns credits. Accept, connect and pop complete inline when
// their queue is ready; otherwise the qtoken joins the queue's FIFO (LibOS::PendingOps) and the
// queue hooks the listener's `acceptable`, or the connection's `established` or `readable`
// Event. The fast path serves hooked queues right after draining the completion queue, so the
// message that makes an op ready completes it in the same poll, oldest op first.
//
// Close completes the queue's pending accepts, connects and pops, and the connection's
// blocked pushes, with kCancelled, then tears the queue down before it returns; a peer's
// close still reads as kEndOfFile. A file queue's ops complete with kCancelled unless their
// log I/O is already on the device; that op completes once the I/O does.
//
// Constructing with a SimBlockDevice yields the integrated Catmint×Cattree libOS; its file
// pushes and pops wait in their queue's FIFO too, on their log I/O's Event.

#ifndef SRC_LIBOSES_CATMINT_H_
#define SRC_LIBOSES_CATMINT_H_

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/core/libos.h"
#include "src/liboses/storage_queue_engine.h"
#include "src/netsim/sim_rdma.h"

namespace demi {

class Catmint final : public LibOS {
 public:
  struct Config {
    MacAddr mac;
    Ipv4Addr ip;
    size_t max_msg_size = 16 * 1024;  // paper: messages up to a configurable buffer size
    size_t send_window_msgs = 64;     // per-connection credits
    size_t recv_buffers = 256;        // device-level posted receives (shared by all conns)
    size_t repost_threshold = 64;     // repost in the poll that finds fewer posted buffers
    SimBlockDevice* disk = nullptr;   // attach for Catmint×Cattree
  };

  Catmint(SimNetwork& network, const Config& config, Clock& clock);
  ~Catmint() override;

  // Out-of-band peer discovery (the role rdma_cm's address resolution plays).
  void AddPeer(Ipv4Addr ip, MacAddr mac) { directory_[ip.value] = mac; }

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
  Result<QToken> Pop(QueueDesc qd) override;

  SimRdmaDevice& device() { return device_; }
  Ipv4Addr local_ip() const { return ip_; }
  bool has_storage() const { return storage_ != nullptr; }

  struct Stats {
    uint64_t msgs_sent = 0;
    uint64_t msgs_received = 0;
    uint64_t credit_updates_sent = 0;
    uint64_t sends_blocked_on_credits = 0;
    uint64_t connects_rejected = 0;
    uint64_t post_failures = 0;  // RDMA verb posts that failed and were absorbed (retried later)
  };
  const Stats& stats() const { return stats_; }

 private:
  // LibOS::ServePending calls Find, NextResult and WaitEvent; CloseQueue, CloseOnDevice.
  friend class LibOS;

  static constexpr uint32_t kWellKnownQp = 1;

  struct Connection;
  struct Listener {
    uint16_t port = 0;
    size_t backlog = 64;
    std::deque<std::shared_ptr<Connection>> pending;
    Event acceptable;
  };

  struct PendingSend {
    Buffer data;
    QToken qt;
  };

  struct Connection {
    uint32_t id = 0;
    uint32_t peer_conn = 0;
    MacAddr peer_mac;
    SocketAddress peer_addr;
    enum class State : uint8_t { kConnecting, kEstablished, kClosed } state = State::kConnecting;
    Status error = Status::kOk;
    bool remote_closed = false;

    // Send side: credits = window - (msgs_sent - *consumed_by_peer).
    uint64_t msgs_sent = 0;
    uint64_t* consumed_by_peer = nullptr;  // registered heap slot; the peer writes it remotely
    std::deque<PendingSend> blocked_sends;

    // Where we write our consumption count (the peer's counter).
    uint64_t peer_ctr_addr = 0;
    uint64_t peer_ctr_rkey = 0;
    uint64_t local_consumed = 0;
    uint64_t last_reported_consumed = 0;

    std::deque<Buffer> rx;
    Event readable;
    Event established;
  };

  enum class QKind : uint8_t { kUnbound, kListener, kConn, kFile };

  struct QueueState {
    QKind kind = QKind::kUnbound;
    bool closing = false;  // set inside Close, which completes `pending` and erases the queue
    PendingOps pending;    // accepts, connects, pops and file pushes waiting for an event
    uint16_t bound_port = 0;
    bool has_bound = false;
    std::unique_ptr<Listener> listener;
    std::shared_ptr<Connection> conn;
    std::unique_ptr<StorageQueueEngine::File> file;
  };

  QueueState* Find(QueueDesc qd);
  std::shared_ptr<Connection> NewConnection(MacAddr peer_mac);
  void SendControl(uint8_t type, MacAddr dst, uint32_t src_conn, uint32_t dst_conn,
                   uint16_t port, const Connection* conn);
  [[nodiscard]] Status SendData(Connection& conn, const Buffer& data);
  void TrySendBlocked(Connection& conn);
  // Completes the pushes still waiting for credits: kCancelled on a local close, the
  // connection's error otherwise.
  void FailBlockedSends(Connection& conn);
  void PublishConsumed(Connection& conn);
  void HandleMessage(const RdmaCompletion& comp);
  void PostRecvBuffers();
  size_t CreditsAvailable(const Connection& conn) const;

  Task<void> FastPathFiber();

  // Waiting ops (LibOS::PendingOps): the result of `op` on `q`, or nullopt while it must keep
  // waiting on WaitEvent(q, op).
  std::optional<QResult> NextResult(QueueState& q, OpCode op);
  Event& WaitEvent(QueueState& q, OpCode op);
  // Close: a file queue's pushes in the log's write in flight complete with it.
  size_t CloseOnDevice(QueueState& q) {
    return q.kind == QKind::kFile ? storage_->CloseFile(*q.file) : 0;
  }

  QueueDesc InstallConnQueue(std::shared_ptr<Connection> conn);

  SimRdmaDevice device_;
  Ipv4Addr ip_;
  Config config_;
  std::unordered_map<uint32_t, MacAddr> directory_;  // ip -> mac

  std::unordered_map<uint32_t, std::shared_ptr<Connection>> conns_;  // by local conn id
  std::unordered_map<uint16_t, Listener*> listeners_;               // by port
  uint32_t next_conn_id_ = 1;

  // Device-level receive buffer pool.
  struct RecvSlot {
    void* buf = nullptr;
  };
  std::vector<RecvSlot> recv_slots_;
  std::deque<size_t> free_slots_;
  size_t posted_recvs_ = 0;
  bool flow_control_due_ = false;  // a pop consumed a message: repost and publish credits

  std::unique_ptr<StorageQueueEngine> storage_;
  std::unordered_map<QueueDesc, QueueState> queues_;
  bool shutdown_ = false;
  Stats stats_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_CATMINT_H_
