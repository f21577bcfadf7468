// SimRdmaDevice: the simulated RDMA NIC substrate.
//
// Substitution for an RDMA HCA (DESIGN.md §2). The device — not the libOS — implements the
// network transport: ordered, reliable message delivery with fragmentation/reassembly, exactly
// the division of labour that makes Catmint thin (paper §2.1, §6.2). The interface mirrors
// ib_verbs: explicit memory registration returning rkeys, per-QP posted receive buffers,
// two-sided send/recv work requests, one-sided RDMA writes into registered remote memory, and a
// polled completion queue.
//
// Like deployed RoCE, the device assumes a lossless fabric (PFC); dropped/reordered frames are
// counted as sequence violations rather than recovered. Configure the fabric lossless when using
// RDMA, as datacenter operators do.

#ifndef SRC_NETSIM_SIM_RDMA_H_
#define SRC_NETSIM_SIM_RDMA_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/memory/dma.h"
#include "src/netsim/sim_network.h"

namespace demi {

struct RdmaCompletion {
  enum class Type : uint8_t { kSend, kRecv, kWrite };
  Type type;
  Status status = Status::kOk;
  uint64_t wr_id = 0;     // send/write: caller's work-request id; recv: posted recv's id
  uint32_t qp = 0;        // local queue pair
  uint32_t byte_len = 0;  // recv: message length written into the buffer
  MacAddr src_mac;        // recv: sender device
  uint32_t src_qp = 0;    // recv: sender queue pair
};

class SimRdmaDevice {
 public:
  SimRdmaDevice(SimNetwork& network, MacAddr mac, Clock& clock);

  MacAddr mac() const { return mac_; }
  Clock& clock() { return clock_; }

  // --- Memory registration (ibv_reg_mr analogue) ---
  uint64_t RegisterMemory(void* base, size_t len);
  void UnregisterMemory(void* base);
  DmaRegistrar& registrar() { return registrar_; }

  // --- Queue pairs ---
  // Creates a QP with a specific number (well-known QPs avoid out-of-band negotiation) or the
  // next free one if `desired` is 0.
  Result<uint32_t> CreateQp(uint32_t desired = 0);

  // --- Work requests ---
  // Posts a receive buffer; incoming messages consume buffers FIFO. The buffer must be
  // registered memory.
  [[nodiscard]] Status PostRecv(uint32_t qp, void* buf, uint32_t len, uint64_t wr_id);

  // Two-sided send: gathers `segments` into one message to (dst_mac, dst_qp). Generates a
  // kSend completion. Zero-copy-sized segments must be registered.
  [[nodiscard]] Status PostSend(uint32_t qp, MacAddr dst_mac, uint32_t dst_qp,
                  std::span<const std::span<const uint8_t>> segments, uint64_t wr_id);

  // One-sided RDMA write into remote registered memory; consumes no remote receive buffer and
  // raises no remote completion (used by Catmint's flow-control window updates, §6.2).
  [[nodiscard]] Status PostWrite(uint32_t qp, MacAddr dst_mac, uint32_t dst_qp, uint64_t remote_rkey,
                   uint64_t remote_addr, std::span<const uint8_t> data, uint64_t wr_id);

  // --- Completion queue (ibv_poll_cq analogue) ---
  // Processes the inbound frames deliverable by `now` (the caller's poll time), then fills
  // `out`. Returns completions written.
  size_t PollCq(std::span<RdmaCompletion> out, TimeNs now);

  struct Stats {
    uint64_t sends = 0;
    uint64_t recvs = 0;
    uint64_t writes = 0;
    uint64_t rnr_drops = 0;        // message arrived with no posted receive buffer
    uint64_t seq_violations = 0;   // loss/reorder detected (lossless fabric assumption broken)
    uint64_t recv_too_small = 0;   // posted buffer smaller than the message
    uint64_t bad_rkey_writes = 0;  // one-sided write outside a registered region
  };
  const Stats& stats() const { return stats_; }

  // Max message payload per fabric frame after the device header.
  size_t MaxFragPayload() const;

 private:
  struct RecvWr {
    void* buf;
    uint32_t len;
    uint64_t wr_id;
  };
  struct QueuePair {
    std::deque<RecvWr> recv_queue;
  };
  struct FlowKey {
    uint64_t src_mac;
    uint32_t src_qp;
    uint32_t dst_qp;
    bool operator<(const FlowKey& o) const {
      if (src_mac != o.src_mac) {
        return src_mac < o.src_mac;
      }
      if (src_qp != o.src_qp) {
        return src_qp < o.src_qp;
      }
      return dst_qp < o.dst_qp;
    }
  };
  struct FlowState {
    uint64_t next_rx_seq = 0;
    // In-flight reassembly of a fragmented message.
    bool assembling = false;
    RecvWr target{};
    uint32_t received = 0;
    uint32_t msg_len = 0;
    MacAddr src_mac;
    uint32_t src_qp = 0;
    uint32_t dst_qp = 0;
  };

  class RdmaRegistrar final : public DmaRegistrar {
   public:
    explicit RdmaRegistrar(SimRdmaDevice& dev) : dev_(dev) {}
    uint64_t RegisterRegion(void* base, size_t len) override {
      return dev_.RegisterMemory(base, len);
    }
    void UnregisterRegion(void* base) override { dev_.UnregisterMemory(base); }

   private:
    SimRdmaDevice& dev_;
  };

  void ProcessInbound(TimeNs now);
  void HandleFrame(const WireFrame& frame);
  bool IsRegistered(const void* ptr, size_t len) const;

  SimNetwork& network_;
  SimNetwork::Port* port_;
  MacAddr mac_;
  Clock& clock_;
  RdmaRegistrar registrar_;

  std::map<uintptr_t, std::pair<size_t, uint64_t>> regions_;  // base -> (len, rkey)
  std::unordered_map<uint64_t, std::pair<uintptr_t, size_t>> rkeys_;  // rkey -> (base, len)
  uint64_t next_rkey_ = 1;

  std::unordered_map<uint32_t, QueuePair> qps_;
  uint32_t next_qp_ = 100;

  std::map<FlowKey, FlowState> flows_;
  std::unordered_map<uint64_t, uint64_t> tx_seq_;  // (dst_mac^qp hash) -> next seq

  std::deque<RdmaCompletion> completions_;
  // Reused inbound burst array: an empty poll constructs no frames.
  std::vector<WireFrame> rx_frames_ = std::vector<WireFrame>(32);
  Stats stats_;
};

}  // namespace demi

#endif  // SRC_NETSIM_SIM_RDMA_H_
