// Tracer: a bounded ring buffer of typed datapath events for µs-scale debugging.
//
// Recording is designed to be safe to leave compiled into every hot path: when disabled (the
// default) Record() is a single predictable branch on a bool — no clock read, no allocation —
// so the datapath pays ~a nanosecond, well under the ≤20 ns budget. When enabled, each event
// is one clock read plus four stores into a preallocated power-of-two ring; the ring wraps and
// overwrites the oldest events, so tracing never allocates or blocks the datapath either.
//
// Drains export as readable text or as Chrome `trace_event` JSON (load in chrome://tracing or
// https://ui.perfetto.dev). Event types and argument meanings are documented in
// docs/OBSERVABILITY.md.

#ifndef SRC_OBSERVABILITY_TRACE_H_
#define SRC_OBSERVABILITY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"

namespace demi {

enum class TraceEventType : uint8_t {
  kQTokenIssued,     // arg1 = queue descriptor, arg2 = qtoken
  kQTokenRedeemed,   // arg1 = queue descriptor, arg2 = qtoken
  kPacketTx,         // arg1 = ip protocol, arg2 = L4 bytes
  kPacketRx,         // arg1 = ip protocol, arg2 = L4 bytes
  kRetransmit,       // arg1 = local port, arg2 = sequence number
  kTimerWheelCascade,  // arg1 = destination level, arg2 = remaining ticks to deadline
  kDiskSubmit,       // arg1 = 1 read / 0 write, arg2 = bytes
  kDiskComplete,     // arg1 = 1 read / 0 write, arg2 = cookie
  // Injected faults (src/faults/fault_injector.h; see docs/FAULTS.md).
  kFaultFrameCorrupt,  // arg1 = first flipped bit index, arg2 = frame bytes
  kFaultLinkFlap,      // arg2 = down-window ns
  kFaultPartition,     // arg1 = src MAC (low 32 bits), arg2 = dst MAC
  kFaultDiskError,     // arg1 = 1 read / 0 write, arg2 = cookie
  kFaultDiskDelay,     // arg1 = 1 read / 0 write, arg2 = extra latency ns
  kFaultTornWrite,     // arg1 = bytes that reached the media, arg2 = cookie
  kFaultAllocFail,     // arg2 = requested bytes
  // Tenant isolation decisions (docs/TENANCY.md).
  kTenantMemDeny,      // arg1 = tenant id, arg2 = requested bytes
  kTenantAcceptShed,   // arg1 = tenant id, arg2 = listener queue descriptor
  kTenantOpShed,       // arg1 = tenant id, arg2 = inflight qtokens at the watermark
  kTenantTxThrottle,   // arg1 = tenant id, arg2 = frame bytes queued behind the bucket
  kFaultTenantDrop,    // arg1 = tenant id, arg2 = frame bytes
  // Zero-copy network×storage splice (docs/STORAGE.md).
  kSpliceStart,        // arg1 = source queue descriptor, arg2 = destination queue descriptor
  kSpliceBatch,        // arg1 = slices in the batch, arg2 = payload bytes
  kSpliceDone,         // arg1 = 0 ok / 1 error, arg2 = total payload bytes moved
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  TimeNs ts = 0;
  TraceEventType type = TraceEventType::kQTokenIssued;
  uint32_t arg1 = 0;
  uint64_t arg2 = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock& clock) : clock_(clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Allocates the ring (capacity rounded up to a power of two, min 8) and starts recording.
  void Enable(size_t capacity);
  // Stops recording and releases the ring.
  void Disable();
  // Stops recording but keeps captured events for draining/export.
  void Pause() { enabled_ = false; }
  void Resume();

  bool enabled() const { return enabled_; }

  // The hot-path entry point; safe (and nearly free) to call while disabled.
  void Record(TraceEventType type, uint32_t arg1 = 0, uint64_t arg2 = 0) {
    if (!enabled_) {
      return;
    }
    TraceEvent& e = ring_[head_ & mask_];
    e.ts = clock_.Now();
    e.type = type;
    e.arg1 = arg1;
    e.arg2 = arg2;
    head_++;
  }

  // Events currently held (≤ capacity).
  size_t size() const {
    return head_ < ring_.size() ? static_cast<size_t>(head_) : ring_.size();
  }
  size_t capacity() const { return ring_.size(); }
  // Events recorded since Enable(), including those overwritten by wraparound.
  uint64_t total_recorded() const { return head_; }
  uint64_t dropped() const { return head_ - size(); }

  void Clear() { head_ = 0; }

  // Oldest-first copy of the held events; clears the ring.
  std::vector<TraceEvent> Drain();

  // One line per held event: "+123456ns  packet_rx  arg1=6 arg2=64".
  std::string ExportText() const;
  // Chrome trace_event JSON ("i"-phase instant events, ts in µs relative to the first event).
  std::string ExportChromeJson() const;

 private:
  template <typename Fn>
  void ForEachHeld(Fn&& fn) const {
    const uint64_t first = head_ < ring_.size() ? 0 : head_ - ring_.size();
    for (uint64_t i = first; i < head_; i++) {
      fn(ring_[i & mask_]);
    }
  }

  Clock& clock_;
  std::vector<TraceEvent> ring_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;
  bool enabled_ = false;
};

}  // namespace demi

#endif  // SRC_OBSERVABILITY_TRACE_H_
