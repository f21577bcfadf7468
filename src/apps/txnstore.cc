#include "src/apps/txnstore.h"

#include <cstring>
#include <unordered_map>

#include "src/common/logging.h"

namespace demi {

// --- Custom raw-RDMA KV (the naive TxnStore-RDMA baseline) ---

namespace {

constexpr uint32_t kRawKvQp = 7;
constexpr size_t kRawKvBufSize = 8 * 1024;
constexpr size_t kRawKvRecvDepth = 64;

struct RawKvHeader {
  uint64_t req_id;
  uint64_t client_mac;
  uint32_t frame_len;
};

}  // namespace

struct RawRdmaKvReplicaApp::Impl {
  Impl(SimNetwork& network, MacAddr mac, Clock& time) : clock(time), device(network, mac, time) {
    auto qp = device.CreateQp(kRawKvQp);
    DEMI_CHECK(qp.ok());
    recv_bufs.assign(kRawKvRecvDepth, std::vector<uint8_t>(kRawKvBufSize));
    for (size_t i = 0; i < recv_bufs.size(); i++) {
      device.RegisterMemory(recv_bufs[i].data(), recv_bufs[i].size());
      DEMI_CHECK(device.PostRecv(kRawKvQp, recv_bufs[i].data(), kRawKvBufSize, i) == Status::kOk);
    }
    tx_buf.resize(kRawKvBufSize);
    device.RegisterMemory(tx_buf.data(), tx_buf.size());
  }

  Clock& clock;
  SimRdmaDevice device;
  std::vector<std::vector<uint8_t>> recv_bufs;
  std::vector<uint8_t> tx_buf;
  std::unordered_map<std::string, std::string> store;
};

RawRdmaKvReplicaApp::RawRdmaKvReplicaApp(SimNetwork& network, MacAddr mac, Clock& clock)
    : impl_(std::make_unique<Impl>(network, mac, clock)) {}

RawRdmaKvReplicaApp::~RawRdmaKvReplicaApp() = default;

size_t RawRdmaKvReplicaApp::PollOnce() {
  Impl& im = *impl_;
  RdmaCompletion comps[16];
  const size_t n = im.device.PollCq(comps, im.clock.Now());
  size_t served = 0;
  for (size_t i = 0; i < n; i++) {
    if (comps[i].type != RdmaCompletion::Type::kRecv || comps[i].status != Status::kOk) {
      continue;
    }
    std::vector<uint8_t>& rbuf = im.recv_bufs[comps[i].wr_id];
    RawKvHeader hdr;
    std::memcpy(&hdr, rbuf.data(), sizeof(hdr));
    KvRequestView req;
    uint8_t resp[4096];
    size_t resp_len;
    if (!KvParseRequest({rbuf.data() + sizeof(hdr), hdr.frame_len}, &req)) {
      resp_len = KvEncodeResponse(KvStatus::kError, "", resp, sizeof(resp));
    } else if (req.op == KvOp::kSet) {
      im.store[std::string(req.key)] = std::string(req.value);
      resp_len = KvEncodeResponse(KvStatus::kOk, "", resp, sizeof(resp));
    } else if (req.op == KvOp::kGet) {
      auto it = im.store.find(std::string(req.key));
      resp_len = it != im.store.end()
                     ? KvEncodeResponse(KvStatus::kOk, it->second, resp, sizeof(resp))
                     : KvEncodeResponse(KvStatus::kNotFound, "", resp, sizeof(resp));
    } else {
      resp_len = KvEncodeResponse(KvStatus::kError, "", resp, sizeof(resp));
    }
    // Copy out into the registered TX buffer (no zero-copy in this transport).
    RawKvHeader resp_hdr = hdr;
    resp_hdr.frame_len = static_cast<uint32_t>(resp_len - 4);
    std::memcpy(im.tx_buf.data(), &resp_hdr, sizeof(resp_hdr));
    std::memcpy(im.tx_buf.data() + sizeof(resp_hdr), resp + 4, resp_len - 4);
    std::span<const uint8_t> seg(im.tx_buf.data(), sizeof(resp_hdr) + resp_len - 4);
    // A dropped response looks like a lost request: the client's timeout resends it. The recv
    // repost must succeed or the ring leaks a slot.
    (void)im.device.PostSend(kRawKvQp, MacAddr{hdr.client_mac}, kRawKvQp, {&seg, 1}, 0);
    DEMI_CHECK(im.device.PostRecv(kRawKvQp, rbuf.data(), kRawKvBufSize, comps[i].wr_id) ==
               Status::kOk);
    served++;
  }
  return served;
}

void RunRawRdmaKvReplica(SimNetwork& network, MacAddr mac, Clock& clock,
                         std::atomic<bool>& stop) {
  RawRdmaKvReplicaApp app(network, mac, clock);
  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    app.PollOnce();
  }
}

RawRdmaTransport::RawRdmaTransport(SimNetwork& network, MacAddr mac, Clock& clock,
                                   std::vector<MacAddr> replicas, std::function<void()> pump)
    : Transport(SocketType::kStream),
      device_(network, mac, clock),
      mac_(mac),
      clock_(clock),
      replicas_(std::move(replicas)),
      pump_(std::move(pump)),
      recv_bufs_(kRawKvRecvDepth, std::vector<uint8_t>(kRawKvBufSize)),
      tx_buf_(kRawKvBufSize) {
  auto qp = device_.CreateQp(kRawKvQp);
  DEMI_CHECK(qp.ok());
  for (size_t i = 0; i < recv_bufs_.size(); i++) {
    device_.RegisterMemory(recv_bufs_[i].data(), recv_bufs_[i].size());
    DEMI_CHECK(device_.PostRecv(kRawKvQp, recv_bufs_[i].data(), kRawKvBufSize, i) == Status::kOk);
  }
  device_.RegisterMemory(tx_buf_.data(), tx_buf_.size());
}

bool RawRdmaTransport::Send(size_t peer, std::span<const uint8_t> bytes) {
  // Copy in: the request frame without its length prefix, behind the transport header.
  RawKvHeader hdr{next_req_++, mac_.value, static_cast<uint32_t>(bytes.size() - 4)};
  std::memcpy(tx_buf_.data(), &hdr, sizeof(hdr));
  std::memcpy(tx_buf_.data() + sizeof(hdr), bytes.data() + 4, bytes.size() - 4);
  std::span<const uint8_t> seg(tx_buf_.data(), sizeof(hdr) + bytes.size() - 4);
  (void)device_.PostSend(kRawKvQp, replicas_[peer], kRawKvQp, {&seg, 1}, 0);  // deadline below
  const TimeNs deadline = clock_.Now() + timeout();
  RdmaCompletion comps[16];
  for (TimeNs now = clock_.Now(); now < deadline; now = clock_.Now()) {
    if (pump_) {
      pump_();
    }
    const size_t n = device_.PollCq(comps, now);
    for (size_t i = 0; i < n; i++) {
      if (comps[i].type != RdmaCompletion::Type::kRecv) {
        continue;
      }
      const std::vector<uint8_t>& rbuf = recv_bufs_[comps[i].wr_id];
      RawKvHeader rh;
      std::memcpy(&rh, rbuf.data(), sizeof(rh));
      const bool ours = rh.req_id == hdr.req_id;  // else a late reply to a timed-out call
      if (ours) {
        // Copy out, restoring the length prefix the codec frames replies by.
        std::vector<uint8_t> frame(4 + rh.frame_len);
        std::memcpy(frame.data(), &rh.frame_len, 4);
        std::memcpy(frame.data() + 4, rbuf.data() + sizeof(rh), rh.frame_len);
        responses_.emplace_back(peer, std::move(frame));
      }
      DEMI_CHECK(device_.PostRecv(kRawKvQp, recv_bufs_[comps[i].wr_id].data(), kRawKvBufSize,
                                  comps[i].wr_id) == Status::kOk);
      if (ours) {
        return true;
      }
    }
  }
  return false;
}

std::optional<size_t> RawRdmaTransport::Receive(DurationNs, Inbox& inbox) {
  if (responses_.empty()) {
    return std::nullopt;  // every call already returned: nothing is in flight
  }
  auto [peer, frame] = std::move(responses_.front());
  responses_.pop_front();
  inbox[peer].insert(inbox[peer].end(), frame.begin(), frame.end());
  return peer;
}

}  // namespace demi
