#include "src/apps/minirpc.h"

#include <cstring>
#include <unordered_map>

#include "src/common/logging.h"

namespace demi {

namespace {

constexpr uint32_t kRpcMagic = 0x4D525043;  // "MRPC"

struct RpcHeader {
  uint32_t magic;
  uint8_t is_response;
  uint8_t pad[3];
  uint64_t req_id;
  uint64_t src_mac;
  uint32_t payload_len;
};

}  // namespace

MiniRpcServer::MiniRpcServer(SimNetwork& network, MacAddr mac, Clock& clock, Handler handler)
    : nic_(network, mac, clock), clock_(clock), handler_(std::move(handler)) {}

size_t MiniRpcServer::PollOnce() {
  WireFrame frames[32];
  const size_t n = nic_.RxBurst(frames, clock_.Now());
  size_t served = 0;
  uint8_t resp_buf[1500];
  for (size_t i = 0; i < n; i++) {
    if (frames[i].size() < sizeof(RpcHeader)) {
      continue;
    }
    RpcHeader hdr;
    std::memcpy(&hdr, frames[i].data(), sizeof(hdr));
    if (hdr.magic != kRpcMagic || hdr.is_response) {
      continue;
    }
    const std::span<const uint8_t> req(frames[i].data() + sizeof(hdr), hdr.payload_len);
    const size_t resp_len =
        handler_(req, std::span<uint8_t>(resp_buf + sizeof(RpcHeader),
                                         sizeof(resp_buf) - sizeof(RpcHeader)));
    RpcHeader resp_hdr = hdr;
    resp_hdr.is_response = 1;
    resp_hdr.src_mac = nic_.mac().value;
    resp_hdr.payload_len = static_cast<uint32_t>(resp_len);
    std::memcpy(resp_buf, &resp_hdr, sizeof(resp_hdr));
    std::span<const uint8_t> seg(resp_buf, sizeof(RpcHeader) + resp_len);
    // A dropped response looks like a lost request: the client's RTO resends it.
    (void)nic_.TxBurst(MacAddr{hdr.src_mac}, {&seg, 1});
    served++;
    requests_served_++;
  }
  return served;
}

void MiniRpcServer::Run(std::atomic<bool>& stop) {
  // demilint: atomic(stop latch with no payload; relaxed poll — thread join is the sync point)
  while (!stop.load(std::memory_order_relaxed)) {
    PollOnce();
  }
}

MiniRpcClient::MiniRpcClient(SimNetwork& network, MacAddr mac, MacAddr server, Clock& clock)
    : nic_(network, mac, clock), server_(server), clock_(clock) {}

std::vector<uint8_t> MiniRpcClient::Call(std::span<const uint8_t> request, DurationNs timeout) {
  const uint64_t req_id = next_req_id_++;
  uint8_t tx_buf[1500];
  RpcHeader hdr{};
  hdr.magic = kRpcMagic;
  hdr.is_response = 0;
  hdr.req_id = req_id;
  hdr.src_mac = nic_.mac().value;
  hdr.payload_len = static_cast<uint32_t>(request.size());
  DEMI_CHECK(sizeof(hdr) + request.size() <= sizeof(tx_buf));
  std::memcpy(tx_buf, &hdr, sizeof(hdr));
  std::memcpy(tx_buf + sizeof(hdr), request.data(), request.size());
  std::span<const uint8_t> seg(tx_buf, sizeof(hdr) + request.size());

  const TimeNs deadline = clock_.Now() + timeout;
  TimeNs next_retransmit = 0;
  const DurationNs rto = 1 * kMillisecond;
  WireFrame frames[8];
  while (clock_.Now() < deadline) {
    if (pump_) {
      pump_();
    }
    if (clock_.Now() >= next_retransmit) {
      (void)nic_.TxBurst(server_, {&seg, 1});  // best-effort; this loop IS the retry path
      next_retransmit = clock_.Now() + rto;
    }
    const size_t n = nic_.RxBurst(frames, clock_.Now());
    for (size_t i = 0; i < n; i++) {
      if (frames[i].size() < sizeof(RpcHeader)) {
        continue;
      }
      RpcHeader rh;
      std::memcpy(&rh, frames[i].data(), sizeof(rh));
      if (rh.magic == kRpcMagic && rh.is_response && rh.req_id == req_id) {
        return std::vector<uint8_t>(frames[i].begin() + sizeof(RpcHeader),
                                    frames[i].begin() + sizeof(RpcHeader) + rh.payload_len);
      }
    }
  }
  return {};
}

uint64_t MiniRpcClient::RunClosedLoopWindow(size_t request_size, size_t depth,
                                            DurationNs duration, Histogram* latency) {
  struct Inflight {
    uint64_t req_id;
    TimeNs sent_at;
  };
  std::unordered_map<uint64_t, TimeNs> inflight;
  std::vector<uint8_t> payload(request_size, 0xAB);
  uint64_t completed = 0;
  const TimeNs end = clock_.Now() + duration;
  WireFrame frames[32];
  uint8_t tx_buf[1500];
  DEMI_CHECK(sizeof(RpcHeader) + request_size <= sizeof(tx_buf));

  while (clock_.Now() < end) {
    while (inflight.size() < depth) {
      const uint64_t req_id = next_req_id_++;
      RpcHeader hdr{};
      hdr.magic = kRpcMagic;
      hdr.req_id = req_id;
      hdr.src_mac = nic_.mac().value;
      hdr.payload_len = static_cast<uint32_t>(request_size);
      std::memcpy(tx_buf, &hdr, sizeof(hdr));
      std::memcpy(tx_buf + sizeof(hdr), payload.data(), request_size);
      std::span<const uint8_t> seg(tx_buf, sizeof(hdr) + request_size);
      (void)nic_.TxBurst(server_, {&seg, 1});  // a lost request is resent by the RTO check above
      inflight[req_id] = clock_.Now();
    }
    if (pump_) {
      pump_();
    }
    const size_t n = nic_.RxBurst(frames, clock_.Now());
    for (size_t i = 0; i < n; i++) {
      if (frames[i].size() < sizeof(RpcHeader)) {
        continue;
      }
      RpcHeader rh;
      std::memcpy(&rh, frames[i].data(), sizeof(rh));
      auto it = rh.magic == kRpcMagic && rh.is_response ? inflight.find(rh.req_id)
                                                        : inflight.end();
      if (it != inflight.end()) {
        if (latency != nullptr) {
          latency->Record(clock_.Now() - it->second);
        }
        inflight.erase(it);
        completed++;
      }
    }
  }
  return completed;
}

}  // namespace demi
