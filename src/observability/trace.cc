#include "src/observability/trace.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "src/common/logging.h"

namespace demi {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kQTokenIssued:
      return "qtoken_issued";
    case TraceEventType::kQTokenRedeemed:
      return "qtoken_redeemed";
    case TraceEventType::kPacketTx:
      return "packet_tx";
    case TraceEventType::kPacketRx:
      return "packet_rx";
    case TraceEventType::kRetransmit:
      return "retransmit";
    case TraceEventType::kTimerWheelCascade:
      return "timerwheel_cascade";
    case TraceEventType::kDiskSubmit:
      return "disk_submit";
    case TraceEventType::kDiskComplete:
      return "disk_complete";
    case TraceEventType::kFaultFrameCorrupt:
      return "fault_frame_corrupt";
    case TraceEventType::kFaultLinkFlap:
      return "fault_link_flap";
    case TraceEventType::kFaultPartition:
      return "fault_partition";
    case TraceEventType::kFaultDiskError:
      return "fault_disk_error";
    case TraceEventType::kFaultDiskDelay:
      return "fault_disk_delay";
    case TraceEventType::kFaultTornWrite:
      return "fault_torn_write";
    case TraceEventType::kFaultAllocFail:
      return "fault_alloc_fail";
    case TraceEventType::kTenantMemDeny:
      return "tenant_mem_deny";
    case TraceEventType::kTenantAcceptShed:
      return "tenant_accept_shed";
    case TraceEventType::kTenantOpShed:
      return "tenant_op_shed";
    case TraceEventType::kTenantTxThrottle:
      return "tenant_tx_throttle";
    case TraceEventType::kFaultTenantDrop:
      return "fault_tenant_drop";
    case TraceEventType::kSpliceStart:
      return "splice_start";
    case TraceEventType::kSpliceBatch:
      return "splice_batch";
    case TraceEventType::kSpliceDone:
      return "splice_done";
  }
  return "unknown";
}

void Tracer::Enable(size_t capacity) {
  const size_t cap = std::bit_ceil(std::max<size_t>(capacity, 8));
  ring_.assign(cap, TraceEvent{});
  mask_ = cap - 1;
  head_ = 0;
  enabled_ = true;
}

void Tracer::Disable() {
  enabled_ = false;
  ring_.clear();
  ring_.shrink_to_fit();
  mask_ = 0;
  head_ = 0;
}

void Tracer::Resume() {
  DEMI_CHECK_MSG(!ring_.empty(), "Resume() without a prior Enable()");
  enabled_ = true;
}

std::vector<TraceEvent> Tracer::Drain() {
  std::vector<TraceEvent> out;
  out.reserve(size());
  ForEachHeld([&](const TraceEvent& e) { out.push_back(e); });
  head_ = 0;
  return out;
}

std::string Tracer::ExportText() const {
  std::string out;
  char line[160];
  const TimeNs base = size() == 0 ? 0 : ring_[(head_ - size()) & mask_].ts;
  ForEachHeld([&](const TraceEvent& e) {
    const int n =
        std::snprintf(line, sizeof(line), "+%-12" PRIu64 " %-16s arg1=%" PRIu32 " arg2=%" PRIu64 "\n",
                      e.ts - base, TraceEventTypeName(e.type), e.arg1, e.arg2);
    if (n > 0) {
      out.append(line, static_cast<size_t>(n));
    }
  });
  return out;
}

std::string Tracer::ExportChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  const TimeNs base = size() == 0 ? 0 : ring_[(head_ - size()) & mask_].ts;
  bool first = true;
  ForEachHeld([&](const TraceEvent& e) {
    const int n = std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
        "\"args\":{\"arg1\":%" PRIu32 ",\"arg2\":%" PRIu64 "}}",
        first ? "" : ",", TraceEventTypeName(e.type),
        static_cast<double>(e.ts - base) / 1e3, e.arg1, e.arg2);
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    }
    first = false;
  });
  out.append("]}");
  return out;
}

}  // namespace demi
