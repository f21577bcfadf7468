#include "src/netsim/sim_network.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/faults/fault_injector.h"
#include "src/netsim/rss.h"

namespace demi {

namespace {
// Frames moved wire-heap -> descriptor ring (and ring -> caller) per burst; bounds the stack
// scratch while keeping the amortized one-fence-per-burst property.
constexpr size_t kFrameBurst = 32;
}  // namespace

SimNetwork::SimNetwork(const LinkConfig& link, uint64_t seed) : link_(link), rng_(seed) {}
SimNetwork::~SimNetwork() = default;

SimNetwork::Port::Port(MacAddr mac, size_t num_queues, size_t queue_capacity) : mac_(mac) {
  queues_.reserve(num_queues);
  for (size_t i = 0; i < num_queues; i++) {
    queues_.push_back(std::make_unique<RxQueue>(queue_capacity));
  }
}

SimNetwork::Port* SimNetwork::CreatePort(MacAddr mac, size_t num_queues) {
  std::unique_lock<std::shared_mutex> lock(ports_mu_);
  auto [it, inserted] = ports_.try_emplace(
      mac.value,
      std::make_unique<Port>(mac, num_queues == 0 ? 1 : num_queues, link_.rx_queue_frames));
  if (!inserted) {
    return nullptr;
  }
  return it->second.get();
}

SimNetwork::Port* SimNetwork::FindPort(MacAddr mac) const {
  std::shared_lock<std::shared_mutex> lock(ports_mu_);
  auto it = ports_.find(mac.value);
  return it == ports_.end() ? nullptr : it->second.get();
}

void SimNetwork::Deliver(MacAddr src, MacAddr dst, WireFrame frame, TimeNs now) {
  // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  // demilint: atomic(acquire pairs with the release in EnablePcap so a sender that sees
  // the gate up also sees pcap_ fully constructed; gate-down senders skip the mutex)
  if (pcap_on_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(pcap_mu_);
    if (pcap_ != nullptr) {
      pcap_->WriteFrame(frame, now);
    }
  }

  // Sender-side serialization delay: the frame occupies the source's line for bytes/line-rate.
  // Tracked under the source port's own lock — senders on different ports don't serialize.
  TimeNs depart = now;
  Port* src_port = FindPort(src);
  if (src_port != nullptr && link_.bandwidth_bps != 0) {
    const DurationNs serialize =
        static_cast<DurationNs>(frame.size()) * 8ULL * kSecond / link_.bandwidth_bps;
    std::lock_guard<std::mutex> lock(src_port->tx_mu_);
    src_port->next_tx_free_ = std::max<TimeNs>(src_port->next_tx_free_, now) + serialize;
    depart = src_port->next_tx_free_;
  }

  // Stochastic link model. The global rng is only consulted when a stochastic knob is armed,
  // so the common lossless multi-shard path takes no shared lock here; when armed, the draw
  // order per frame (loss -> [faults] -> reorder -> duplicate) matches the single-queue
  // implementation exactly, preserving seeded replays.
  const bool stochastic = link_.loss > 0 || link_.reorder > 0 || link_.duplicate > 0;
  if (stochastic) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (rng_.NextBool(link_.loss)) {
      // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
      stats_.frames_dropped_loss.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  // Injected faults, after the stochastic link model so existing seeds are undisturbed when no
  // injector is attached: flap/partition windows swallow the frame, corruption flips bits and
  // delivers it anyway (the stacks' checksums must catch it). The injector locks itself.
  // demilint: atomic(acquire pairs with SetFaultInjector's release: a non-null pointer
  // implies a fully constructed injector)
  FaultInjector* faults = faults_.load(std::memory_order_acquire);
  if (faults != nullptr) {
    if (faults->NetShouldDrop(src, dst, now)) {
      // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
      stats_.frames_dropped_fault.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (faults->NetMaybeCorrupt(frame)) {
      // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
      stats_.frames_corrupted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  TimeNs deliver_at = depart + link_.latency + link_.per_frame_overhead;
  bool duplicate = false;
  if (stochastic) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (link_.reorder > 0 && rng_.NextBool(link_.reorder)) {
      deliver_at += link_.reorder_extra;
      // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
      stats_.frames_reordered.fetch_add(1, std::memory_order_relaxed);
    }
    duplicate = link_.duplicate > 0 && rng_.NextBool(link_.duplicate);
  }

  if (dst.IsBroadcast()) {
    std::shared_lock<std::shared_mutex> lock(ports_mu_);
    for (auto& [mac_value, port] : ports_) {
      if (mac_value == src.value) {
        continue;
      }
      DeliverToPort(port.get(), frame, deliver_at);  // copies: each port needs its own
    }
    return;
  }

  Port* dst_port = FindPort(dst);
  if (dst_port == nullptr) {
    return;  // no such host: frame vanishes, like a real switch with no matching port
  }
  if (duplicate) {
    // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
    stats_.frames_duplicated.fetch_add(1, std::memory_order_relaxed);
    DeliverToPort(dst_port, frame, deliver_at + 1);
  }
  DeliverToPort(dst_port, std::move(frame), deliver_at);
}

void SimNetwork::DeliverToPort(Port* port, WireFrame frame, TimeNs deliver_at) {
  // RSS steering: the destination queue is a pure function of the frame's flow 4-tuple, so a
  // flow's packets always land on the same shard regardless of which core delivered them.
  const size_t queue =
      port->queues_.size() == 1 ? 0 : RssQueueForFrame(frame, port->queues_.size());
  Port::RxQueue& q = *port->queues_[queue];
  std::unique_lock<std::mutex> lock(q.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
    stats_.port_lock_contention.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  if (q.inbound.size() + q.ring.SizeApprox() >= link_.rx_queue_frames) {
    // demilint: atomic(relaxed stats bump; see AtomicStats in the header)
    stats_.frames_dropped_queue.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // demilint: atomic(ticket draw: uniqueness needs only the RMW modification order; the
  // frame itself is published by q.mu, held here)
  q.inbound.push(PendingFrame{deliver_at, next_seq_.fetch_add(1, std::memory_order_relaxed),
                              std::move(frame)});
  Port::PublishNextDeliverLocked(q);
}

SimNetwork::Stats SimNetwork::GetStats() const {
  Stats s;
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_sent = stats_.frames_sent.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_dropped_loss = stats_.frames_dropped_loss.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_dropped_queue = stats_.frames_dropped_queue.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_dropped_fault = stats_.frames_dropped_fault.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_duplicated = stats_.frames_duplicated.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_reordered = stats_.frames_reordered.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.frames_corrupted = stats_.frames_corrupted.load(std::memory_order_relaxed);
  // demilint: atomic(relaxed stats snapshot; see AtomicStats in the header)
  s.port_lock_contention = stats_.port_lock_contention.load(std::memory_order_relaxed);
  return s;
}

bool SimNetwork::EnablePcap(const std::string& path) {
  std::lock_guard<std::mutex> lock(pcap_mu_);
  auto writer = std::make_unique<PcapWriter>(path);
  if (!writer->ok()) {
    return false;
  }
  pcap_ = std::move(writer);
  // demilint: atomic(release publishes pcap_'s construction to senders' acquire loads)
  pcap_on_.store(true, std::memory_order_release);
  return true;
}

void SimNetwork::DisablePcap() {
  std::lock_guard<std::mutex> lock(pcap_mu_);
  // demilint: atomic(lowers the gate before pcap_ is destroyed; in-flight writers that
  // already saw the gate up finish under pcap_mu_, which we hold)
  pcap_on_.store(false, std::memory_order_release);
  pcap_.reset();
}

uint64_t SimNetwork::PcapFramesWritten() const {
  std::lock_guard<std::mutex> lock(pcap_mu_);
  return pcap_ == nullptr ? 0 : pcap_->frames_written();
}

TimeNs SimNetwork::NextDeliveryTime() const {
  std::shared_lock<std::shared_mutex> ports_lock(ports_mu_);
  TimeNs earliest = 0;
  for (const auto& [mac, port] : ports_) {
    for (const auto& q : port->queues_) {
      TimeNs t = 0;
      // Matured-but-unpolled frames keep their original timestamps in the descriptor ring.
      if (const PendingFrame* front = q->ring.Front(); front != nullptr) {
        t = front->deliver_at;
      }
      std::lock_guard<std::mutex> lock(q->mu);
      if (!q->inbound.empty() && (t == 0 || q->inbound.top().deliver_at < t)) {
        t = q->inbound.top().deliver_at;
      }
      if (t != 0 && (earliest == 0 || t < earliest)) {
        earliest = t;
      }
    }
  }
  return earliest;
}

void SimNetwork::Port::PublishNextDeliverLocked(RxQueue& q) {
  const TimeNs next = q.inbound.empty() ? UINT64_MAX : q.inbound.top().deliver_at;
  // demilint: atomic(release under q.mu; pairs with PollQueue's acquire load, see RxQueue)
  q.next_deliver_at.store(next, std::memory_order_release);
}

void SimNetwork::Port::MatureLocked(RxQueue& q, TimeNs now) {
  while (!q.inbound.empty() && q.inbound.top().deliver_at <= now) {
    PendingFrame batch[kFrameBurst];
    size_t n = 0;
    while (n < kFrameBurst && !q.inbound.empty() && q.inbound.top().deliver_at <= now) {
      batch[n++] = std::move(const_cast<PendingFrame&>(q.inbound.top()));
      q.inbound.pop();
    }
    const size_t pushed = q.ring.PushBurst(std::span<PendingFrame>(batch, n));
    if (pushed < n) {
      // Ring full (can't normally happen: ring capacity >= the taildrop bound). Put the
      // remainder back rather than dropping frames that already survived the link model.
      for (size_t i = pushed; i < n; i++) {
        q.inbound.push(std::move(batch[i]));
      }
      break;
    }
  }
  PublishNextDeliverLocked(q);
}

size_t SimNetwork::Port::DrainRing(RxQueue& q, std::span<WireFrame> out) {
  // The shard that drains the ring is also the only one that fills it (MatureLocked runs from
  // its own PollQueue), so an empty ring here is exact.
  if (q.ring.EmptyApprox()) {
    return 0;
  }
  PendingFrame batch[kFrameBurst];
  size_t total = 0;
  while (total < out.size()) {
    const size_t want = std::min(out.size() - total, kFrameBurst);
    const size_t got = q.ring.PopBurst(std::span<PendingFrame>(batch, want));
    if (got == 0) {
      break;
    }
    for (size_t i = 0; i < got; i++) {
      out[total + i] = std::move(batch[i].data);
    }
    total += got;
  }
  return total;
}

size_t SimNetwork::Port::PollQueue(size_t queue, std::span<WireFrame> out, TimeNs now) {
  DEMI_DCHECK(queue < queues_.size());
  RxQueue& q = *queues_[queue];
  // Matured descriptors already on the ring satisfy the whole burst without the timing-stage
  // lock.
  size_t n = DrainRing(q, out);
  // demilint: atomic(acquire pairs with PublishNextDeliverLocked's release, see RxQueue)
  if (n == out.size() || q.next_deliver_at.load(std::memory_order_acquire) > now) {
    return n;  // nothing on the wire is due yet: no lock
  }
  {
    std::lock_guard<std::mutex> lock(q.mu);
    MatureLocked(q, now);
  }
  n += DrainRing(q, out.subspan(n));
  return n;
}

SimNic::SimNic(SimNetwork& network, MacAddr mac, Clock& clock, size_t num_queues)
    : network_(network), mac_(mac), clock_(clock),
      queue_stats_(num_queues == 0 ? 1 : num_queues) {
  port_ = network.CreatePort(mac, queue_stats_.size());
  DEMI_CHECK_MSG(port_ != nullptr, "MAC %s already attached", mac.ToString().c_str());
}

size_t SimNic::RxBurst(size_t queue, std::span<WireFrame> out, TimeNs now) {
  DEMI_DCHECK(queue < queue_stats_.size());
  const size_t n = port_->PollQueue(queue, out, now);
  PaddedStats& qs = queue_stats_[queue];
  qs.rx_frames += n;
  for (size_t i = 0; i < n; i++) {
    qs.rx_bytes += out[i].size();
  }
  return n;
}

Status SimNic::TxBurst(size_t queue, MacAddr dst,
                       std::span<const std::span<const uint8_t>> segments) {
  DEMI_DCHECK(queue < queue_stats_.size());
  PaddedStats& qs = queue_stats_[queue];
  size_t total = 0;
  for (const auto& seg : segments) {
    total += seg.size();
  }
  if (total > mtu()) {
    qs.tx_oversize++;
    return Status::kMessageTooLong;
  }
  WireFrame frame;
  frame.reserve(total);
  for (const auto& seg : segments) {
    // The DMA discipline: large (zero-copy) segments must come from device-registered memory,
    // as a real kernel-bypass NIC can only DMA from pinned, IOMMU-mapped pages.
    if (seg.size() >= 1024) {
      DEMI_CHECK_MSG(registrar_.Covers(seg.data(), seg.size()),
                     "zero-copy TX segment not in DMA-registered memory");
    }
    frame.insert(frame.end(), seg.begin(), seg.end());
  }
  qs.tx_frames++;
  qs.tx_bytes += frame.size();
  network_.Deliver(mac_, dst, std::move(frame), clock_.Now());
  return Status::kOk;
}

SimNic::Stats SimNic::stats() const {
  Stats total;
  for (const PaddedStats& qs : queue_stats_) {
    total.tx_frames += qs.tx_frames;
    total.tx_bytes += qs.tx_bytes;
    total.rx_frames += qs.rx_frames;
    total.rx_bytes += qs.rx_bytes;
    total.tx_oversize += qs.tx_oversize;
  }
  return total;
}

SimNic::Stats SimNic::queue_stats(size_t queue) const {
  DEMI_DCHECK(queue < queue_stats_.size());
  return queue_stats_[queue];
}

}  // namespace demi
