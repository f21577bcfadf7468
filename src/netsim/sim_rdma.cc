#include "src/netsim/sim_rdma.h"

#include <cstring>

#include "src/common/logging.h"

namespace demi {

namespace {

constexpr uint32_t kRdmaMagic = 0x52444D41;  // "RDMA"

enum class WireOp : uint8_t { kSend = 1, kWrite = 2 };

// Device-internal wire header, prepended to every fabric frame.
struct WireHeader {
  uint32_t magic;
  uint8_t opcode;
  uint8_t pad[3];
  uint32_t src_qp;
  uint32_t dst_qp;
  uint64_t src_mac;
  uint64_t seq;        // per-flow frame sequence (lossless fabric check)
  uint32_t msg_len;    // total message payload length
  uint32_t frag_off;   // offset of this fragment within the message
  uint64_t remote_addr;  // writes only
  uint64_t rkey;         // writes only
};

uint64_t TxFlowKey(MacAddr dst, uint32_t src_qp, uint32_t dst_qp) {
  return dst.value * 1000003ULL + (uint64_t{src_qp} << 32) + dst_qp;
}

}  // namespace

SimRdmaDevice::SimRdmaDevice(SimNetwork& network, MacAddr mac, Clock& clock)
    : network_(network), mac_(mac), clock_(clock), registrar_(*this) {
  port_ = network.CreatePort(mac);
  DEMI_CHECK_MSG(port_ != nullptr, "MAC %s already attached", mac.ToString().c_str());
}

size_t SimRdmaDevice::MaxFragPayload() const { return network_.link().mtu - sizeof(WireHeader); }

uint64_t SimRdmaDevice::RegisterMemory(void* base, size_t len) {
  const uint64_t rkey = next_rkey_++;
  regions_[reinterpret_cast<uintptr_t>(base)] = {len, rkey};
  rkeys_[rkey] = {reinterpret_cast<uintptr_t>(base), len};
  return rkey;
}

void SimRdmaDevice::UnregisterMemory(void* base) {
  auto it = regions_.find(reinterpret_cast<uintptr_t>(base));
  if (it != regions_.end()) {
    rkeys_.erase(it->second.second);
    regions_.erase(it);
  }
}

bool SimRdmaDevice::IsRegistered(const void* ptr, size_t len) const {
  const auto addr = reinterpret_cast<uintptr_t>(ptr);
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    return false;
  }
  --it;
  return addr + len <= it->first + it->second.first;
}

Result<uint32_t> SimRdmaDevice::CreateQp(uint32_t desired) {
  uint32_t qp = desired != 0 ? desired : next_qp_++;
  auto [it, inserted] = qps_.try_emplace(qp);
  if (!inserted) {
    return Status::kAddressInUse;
  }
  return qp;
}

Status SimRdmaDevice::PostRecv(uint32_t qp, void* buf, uint32_t len, uint64_t wr_id) {
  auto it = qps_.find(qp);
  if (it == qps_.end()) {
    return Status::kBadQueueDescriptor;
  }
  DEMI_CHECK_MSG(IsRegistered(buf, len), "recv buffer not in registered memory");
  it->second.recv_queue.push_back(RecvWr{buf, len, wr_id});
  return Status::kOk;
}

Status SimRdmaDevice::PostSend(uint32_t qp, MacAddr dst_mac, uint32_t dst_qp,
                               std::span<const std::span<const uint8_t>> segments,
                               uint64_t wr_id) {
  auto it = qps_.find(qp);
  if (it == qps_.end()) {
    return Status::kBadQueueDescriptor;
  }
  size_t total = 0;
  for (const auto& seg : segments) {
    if (seg.size() >= 1024) {
      DEMI_CHECK_MSG(IsRegistered(seg.data(), seg.size()),
                     "zero-copy RDMA send segment not in registered memory");
    }
    total += seg.size();
  }

  // Gather the message, then fragment onto the fabric. The gather copy stands in for the HCA's
  // DMA of each registered segment onto the wire.
  std::vector<uint8_t> msg;
  msg.reserve(total);
  for (const auto& seg : segments) {
    msg.insert(msg.end(), seg.begin(), seg.end());
  }

  uint64_t& seq = tx_seq_[TxFlowKey(dst_mac, qp, dst_qp)];
  const size_t frag_max = MaxFragPayload();
  size_t off = 0;
  do {
    const size_t chunk = std::min(frag_max, msg.size() - off);
    WireFrame frame(sizeof(WireHeader) + chunk);
    WireHeader hdr{};
    hdr.magic = kRdmaMagic;
    hdr.opcode = static_cast<uint8_t>(WireOp::kSend);
    hdr.src_qp = qp;
    hdr.dst_qp = dst_qp;
    hdr.src_mac = mac_.value;
    hdr.seq = seq++;
    hdr.msg_len = static_cast<uint32_t>(msg.size());
    hdr.frag_off = static_cast<uint32_t>(off);
    std::memcpy(frame.data(), &hdr, sizeof(hdr));
    std::memcpy(frame.data() + sizeof(hdr), msg.data() + off, chunk);
    network_.Deliver(mac_, dst_mac, std::move(frame), clock_.Now());
    off += chunk;
  } while (off < msg.size());

  stats_.sends++;
  // The lossless-fabric model acknowledges instantly: signal send completion now. The data has
  // left host memory (gathered above), so the caller may release its buffers.
  completions_.push_back(RdmaCompletion{RdmaCompletion::Type::kSend, Status::kOk, wr_id, qp, 0,
                                        MacAddr{}, 0});
  return Status::kOk;
}

Status SimRdmaDevice::PostWrite(uint32_t qp, MacAddr dst_mac, uint32_t dst_qp,
                                uint64_t remote_rkey, uint64_t remote_addr,
                                std::span<const uint8_t> data, uint64_t wr_id) {
  auto it = qps_.find(qp);
  if (it == qps_.end()) {
    return Status::kBadQueueDescriptor;
  }
  DEMI_CHECK_MSG(data.size() <= MaxFragPayload(), "one-sided writes limited to one fragment");
  WireFrame frame(sizeof(WireHeader) + data.size());
  WireHeader hdr{};
  hdr.magic = kRdmaMagic;
  hdr.opcode = static_cast<uint8_t>(WireOp::kWrite);
  hdr.src_qp = qp;
  hdr.dst_qp = dst_qp;
  hdr.src_mac = mac_.value;
  hdr.seq = tx_seq_[TxFlowKey(dst_mac, qp, dst_qp)]++;
  hdr.msg_len = static_cast<uint32_t>(data.size());
  hdr.frag_off = 0;
  hdr.remote_addr = remote_addr;
  hdr.rkey = remote_rkey;
  std::memcpy(frame.data(), &hdr, sizeof(hdr));
  std::memcpy(frame.data() + sizeof(hdr), data.data(), data.size());
  network_.Deliver(mac_, dst_mac, std::move(frame), clock_.Now());
  stats_.writes++;
  completions_.push_back(RdmaCompletion{RdmaCompletion::Type::kWrite, Status::kOk, wr_id, qp, 0,
                                        MacAddr{}, 0});
  return Status::kOk;
}

void SimRdmaDevice::ProcessInbound(TimeNs now) {
  for (;;) {
    const size_t n = port_->Poll(rx_frames_, now);
    for (size_t i = 0; i < n; i++) {
      HandleFrame(rx_frames_[i]);
    }
    if (n < rx_frames_.size()) {
      return;  // a short burst drained every frame due by `now`
    }
  }
}

void SimRdmaDevice::HandleFrame(const WireFrame& frame) {
  if (frame.size() < sizeof(WireHeader)) {
    return;
  }
  WireHeader hdr;
  std::memcpy(&hdr, frame.data(), sizeof(hdr));
  if (hdr.magic != kRdmaMagic) {
    return;  // not an RDMA frame (e.g., stray broadcast)
  }
  const uint8_t* payload = frame.data() + sizeof(WireHeader);
  const size_t payload_len = frame.size() - sizeof(WireHeader);

  FlowKey key{hdr.src_mac, hdr.src_qp, hdr.dst_qp};
  FlowState& flow = flows_[key];
  if (hdr.seq != flow.next_rx_seq) {
    // Lossless in-order fabric assumption broken; count and resynchronize.
    stats_.seq_violations++;
    flow.next_rx_seq = hdr.seq;
    flow.assembling = false;
  }
  flow.next_rx_seq = hdr.seq + 1;

  if (hdr.opcode == static_cast<uint8_t>(WireOp::kWrite)) {
    auto it = rkeys_.find(hdr.rkey);
    if (it == rkeys_.end() || hdr.remote_addr < it->second.first ||
        hdr.remote_addr + hdr.msg_len > it->second.first + it->second.second) {
      stats_.bad_rkey_writes++;
      return;
    }
    std::memcpy(reinterpret_cast<void*>(hdr.remote_addr), payload, payload_len);
    return;
  }

  // Two-sided send: first fragment claims a posted receive buffer.
  auto qp_it = qps_.find(hdr.dst_qp);
  if (qp_it == qps_.end()) {
    return;
  }
  QueuePair& qp = qp_it->second;

  if (!flow.assembling) {
    if (qp.recv_queue.empty()) {
      stats_.rnr_drops++;
      return;
    }
    RecvWr wr = qp.recv_queue.front();
    qp.recv_queue.pop_front();
    if (wr.len < hdr.msg_len) {
      stats_.recv_too_small++;
      completions_.push_back(RdmaCompletion{RdmaCompletion::Type::kRecv, Status::kMessageTooLong,
                                            wr.wr_id, hdr.dst_qp, 0, MacAddr{hdr.src_mac},
                                            hdr.src_qp});
      return;
    }
    flow.assembling = true;
    flow.target = wr;
    flow.received = 0;
    flow.msg_len = hdr.msg_len;
    flow.src_mac = MacAddr{hdr.src_mac};
    flow.src_qp = hdr.src_qp;
    flow.dst_qp = hdr.dst_qp;
  }

  DEMI_CHECK(hdr.frag_off + payload_len <= flow.target.len);
  std::memcpy(static_cast<uint8_t*>(flow.target.buf) + hdr.frag_off, payload, payload_len);
  flow.received += static_cast<uint32_t>(payload_len);

  if (flow.received >= flow.msg_len) {
    stats_.recvs++;
    completions_.push_back(RdmaCompletion{RdmaCompletion::Type::kRecv, Status::kOk,
                                          flow.target.wr_id, flow.dst_qp, flow.msg_len,
                                          flow.src_mac, flow.src_qp});
    flow.assembling = false;
  }
}

size_t SimRdmaDevice::PollCq(std::span<RdmaCompletion> out, TimeNs now) {
  ProcessInbound(now);
  size_t n = 0;
  while (n < out.size() && !completions_.empty()) {
    out[n++] = completions_.front();
    completions_.pop_front();
  }
  return n;
}

}  // namespace demi
