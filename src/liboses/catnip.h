// Catnip: the DPDK library OS (paper §6.3), here over the simulated poll-mode NIC.
//
// Implements PDPIX over the full userspace UDP/TCP stacks. A single fast-path coroutine polls
// the NIC (and, when a disk is attached, the storage completion queue — the Catnip×Cattree
// round-robin split of §5.5); push transmits inline run-to-completion.
//
// No op gets a coroutine. Each completes inline when its queue is already ready; otherwise its
// qtoken joins the queue's FIFO (LibOS::PendingOps) and the queue hooks the Event its oldest op
// waits on: the listener's acceptable(), the connection's established_event(), the socket's,
// connection's or memory channel's readable Event, or a file op's or splice's log I/O. The
// hook only records the queue. The fast path serves recorded queues right after draining the
// NIC and the disk, so the frame or disk completion that makes an op ready (a segment, a
// datagram, the handshake's final ACK, a durable write) completes it in the same poll, oldest
// op first.
//
// Close completes every pending accept, connect and TCP or UDP pop with kCancelled, and a
// memory queue's pending pops with its remaining items and then kEndOfFile, then tears the
// queue down before it returns. A file queue's ops, and a splice, complete with kCancelled
// unless their log I/O is already on the device; that op completes once the I/O does.
//
// Constructing with a SimBlockDevice yields the integrated Catnip×Cattree libOS: network
// sockets and storage queues share one scheduler and one DMA heap, enabling the paper's
// NIC→app→disk run-to-completion path without copies or thread switches.

#ifndef SRC_LIBOSES_CATNIP_H_
#define SRC_LIBOSES_CATNIP_H_

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/libos.h"
#include "src/liboses/storage_queue_engine.h"
#include "src/net/ethernet.h"
#include "src/net/tcp/tcp.h"
#include "src/net/udp.h"
#include "src/netsim/sim_network.h"

namespace demi {

class PartitionedLog;

class Catnip final : public LibOS {
 public:
  struct Config {
    MacAddr mac;
    Ipv4Addr ip;
    TcpConfig tcp;
    // Attach a disk to get the integrated Catnip×Cattree libOS.
    SimBlockDevice* disk = nullptr;
    // NIC checksum offload (default on, as DPDK deployments configure); off = software
    // checksums (ablation).
    bool checksum_offload = true;
    // Frames the fast path drains from the NIC per scheduler round (DPDK rx_burst nb_pkts);
    // 1 reproduces the pre-batching frame-per-poll datapath for ablation.
    size_t rx_burst_frames = EthernetLayer::kDefaultRxBurst;
  };

  Catnip(SimNetwork& network, const Config& config, Clock& clock);
  ~Catnip() override;

  // --- PDPIX ---
  Result<QueueDesc> Socket(SocketType type) override;
  [[nodiscard]] Status Bind(QueueDesc qd, SocketAddress local) override;
  [[nodiscard]] Status Listen(QueueDesc qd, int backlog) override;
  Result<QToken> Accept(QueueDesc qd) override;
  Result<QToken> Connect(QueueDesc qd, SocketAddress remote) override;
  [[nodiscard]] Status Close(QueueDesc qd) override;
  Result<QueueDesc> Open(std::string_view path) override;
  [[nodiscard]] Status Seek(QueueDesc qd, uint64_t offset) override;
  [[nodiscard]] Status Truncate(QueueDesc qd, uint64_t offset) override;
  Result<QueueDesc> MemoryQueue() override;
  Result<QToken> Push(QueueDesc qd, const Sgarray& sga) override;
  Result<QToken> PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) override;
  Result<QToken> Pop(QueueDesc qd) override;
  // Zero-copy splice (docs/STORAGE.md), an op on the source queue: TCP→file takes the
  // connection's ready Buffer views whenever no append of its own is in flight and gather-DMAs
  // them into the log as one record; file→TCP reads each record into one pool allocation and
  // pushes the payload view into the connection. Requires the integrated Catnip×Cattree build
  // (a disk) and a (kTcpConn, kFile) queue pair in either order; a queue runs one splice at a
  // time (a second returns kInvalidArgument while the first runs).
  Result<QToken> Splice(QueueDesc src_qd, QueueDesc dst_qd) override;
  // Assigns a queue to an isolation domain: its qtokens, buffers, and TX frames are charged to
  // that tenant, and accepted connections inherit the listener's tenant.
  [[nodiscard]] Status SetQueueTenant(QueueDesc qd, TenantId tenant) override;

  // DemiSan thread-affinity: the common tags (heap, qtoken table) plus Catnip's shard-local
  // TCP state (flow table, TCB slab). See LibOS::BindShardAffinity.
  void BindShardAffinity(int shard_id) override {
    LibOS::BindShardAffinity(shard_id);
    tcp_.BindShard(shard_id);
  }
  void UnbindShardAffinity() override {
    tcp_.UnbindShard();
    LibOS::UnbindShardAffinity();
  }

  // --- Introspection ---
  EthernetLayer& ethernet() { return eth_; }
  TcpStack& tcp() { return tcp_; }
  UdpStack& udp() { return udp_; }
  SimNic& nic() { return nic_; }
  Ipv4Addr local_ip() const { return eth_.local_ip(); }
  bool has_storage() const { return storage_ != nullptr; }
  // Null unless constructed with a disk; chaos tests use this to tune the log retry policy.
  StorageQueueEngine* storage() { return storage_.get(); }

 private:
  // ShardGroup (src/core/shard_group.h, paper §7 multi-worker mode) builds each worker's
  // shard through the ShardWiring constructor below.
  friend class ShardGroup;
  // LibOS::ServePending calls Find, NextResult and WaitEvent; CloseQueue, CloseOnDevice.
  friend class LibOS;

  // How one shard attaches to the resources its ShardGroup shares. A standalone Catnip uses
  // the default: it owns a single-queue NIC and the whole disk.
  struct ShardWiring {
    // The shared multi-queue NIC (must outlive the libOS) and the RSS queue pair this shard
    // polls and transmits on; null = own a single-queue NIC.
    SimNic* nic = nullptr;
    size_t queue_id = 0;
    // With a disk: this shard's Cattree engine owns partition `queue_id` of the log and draws
    // record epochs from the shared counter; null = own the whole device.
    PartitionedLog* plog = nullptr;
  };
  Catnip(SimNetwork& network, const Config& config, Clock& clock, const ShardWiring& shard);

  // Reap closed TCP state every kReapInterval fast-path iterations.
  static constexpr uint32_t kReapInterval = 1024;

  struct MemChannel {
    std::deque<Buffer> items;
    Event readable;
  };

  // A splice in progress, kept by its source queue: the connection it drains or feeds, and
  // its log I/O.
  struct SpliceState {
    std::shared_ptr<TcpConnection> conn;
    QueueDesc qd;  // the source queue and the splice's qtoken, for DemiSan owner notes
    QToken qt;
    LogDevice::Io io;
    size_t batch = 0;  // to disk: the ready views the append in flight gathers
    QResult result;    // status, and the payload bytes moved so far
  };

  // Batch sizing: bytes stay under the largest pooled size class even after MSS rounding and
  // block alignment (so the reverse read's span allocation recycles, keeping the heap flat)
  // and slices stay under the device SGL limit (so an SG append never has to flatten —
  // splice.bounce_bytes == 0 on the happy path). 48 kB also amortizes the device's per-op
  // write latency enough that one append at a time outruns a 10 Gbps wire.
  static constexpr size_t kSpliceBatchBytes = 48 * 1024;
  static constexpr size_t kSpliceBatchMaxSlices = 64;
  // disk→net backpressure: pause reads while the connection's send backlog is above this.
  static constexpr size_t kSpliceTxHighWater = 256 * 1024;

  struct SpliceStats {
    uint64_t ops = 0;     // completed splice operations
    uint64_t active = 0;  // currently running splice operations
    uint64_t bytes = 0;   // payload bytes moved end to end
    uint64_t records = 0; // log records written or read on behalf of splices
  };

  enum class QKind : uint8_t {
    kTcpUnbound,  // Socket(kStream) before listen/connect
    kTcpListener,
    kTcpConn,
    kUdp,
    kFile,
    kMemory,
  };

  struct QueueState {
    QKind kind = QKind::kTcpUnbound;
    bool closing = false;  // set inside Close, which completes `pending` and erases the queue
    TenantId tenant = kDefaultTenant;
    PendingOps pending;  // accepts, connects, pops, file pushes and splices waiting for an event
    SocketAddress bound{};
    bool has_bound = false;
    TcpListener* listener = nullptr;
    std::shared_ptr<TcpConnection> conn;
    UdpStack::Socket* udp = nullptr;
    SocketAddress udp_default_remote{};
    bool udp_connected = false;
    std::unique_ptr<StorageQueueEngine::File> file;
    std::unique_ptr<MemChannel> mem;
    std::unique_ptr<SpliceState> splice;
  };

  QueueState* Find(QueueDesc qd);
  QueueDesc NewQd() { return next_qd_++; }
  // Load shedding at submission: true (and counted/traced) when the tenant is over its
  // inflight-qtoken watermark; the caller returns kQueueFull without allocating a qtoken.
  bool ShedOp(TenantId tenant);
  void OnTenantRegistered(TenantId tenant, const TenantConfig& config) override;
  QueueDesc InstallConnQueue(std::shared_ptr<TcpConnection> conn);

  Task<void> FastPathFiber();
  // The two splice directions, as NextResult serves them on the source queue `q`, and the
  // end both share.
  std::optional<QResult> SpliceToDisk(QueueState& q);
  std::optional<QResult> SpliceToNet(QueueState& q);
  QResult FinishSplice(QueueState& q);

  // Waiting ops (LibOS::PendingOps): the result of `op` on `q`, or nullopt while it must keep
  // waiting on WaitEvent(q, op).
  std::optional<QResult> NextResult(QueueState& q, OpCode op);
  Event& WaitEvent(QueueState& q, OpCode op);
  // Close: a file queue's pushes in the log's write in flight complete with it.
  size_t CloseOnDevice(QueueState& q) {
    return q.kind == QKind::kFile ? storage_->CloseFile(*q.file) : 0;
  }

  std::unique_ptr<SimNic> owned_nic_;  // null when ShardWiring::nic is used
  SimNic& nic_;
  EthernetLayer eth_;
  UdpStack udp_;
  TcpStack tcp_;
  std::unique_ptr<StorageQueueEngine> storage_;
  SimBlockDevice* disk_ = nullptr;  // external device: tracer detached at destruction
  std::unordered_map<QueueDesc, QueueState> queues_;
  bool shutdown_ = false;
  SpliceStats splice_stats_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_CATNIP_H_
