// PDPIX datapath types: queue descriptors, queue tokens, scatter-gather arrays, completion
// results (paper §4.2, Figure 2).

#ifndef SRC_CORE_TYPES_H_
#define SRC_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>

#include "src/common/status.h"
#include "src/net/address.h"

namespace demi {

// Queue descriptor: PDPIX's replacement for POSIX file descriptors.
using QueueDesc = int;
constexpr QueueDesc kInvalidQd = -1;

// Queue token: the asynchronous handle returned by push/pop/accept/connect, redeemed via
// wait/wait_any/wait_all.
using QToken = uint64_t;
constexpr QToken kInvalidQToken = 0;

// Tenant identifier: the isolation domain a queue (and every Buffer/qtoken/TX frame it
// produces) is charged to. Tenant 0 is the default/control domain — untagged memory, ARP,
// RSTs — and is exempt from budgets, rate limiting, and shedding (docs/TENANCY.md).
using TenantId = uint16_t;
constexpr TenantId kDefaultTenant = 0;

enum class SocketType : uint8_t { kStream, kDatagram };

// Scatter-gather array. PDPIX I/O submits complete operations as pointer arrays so the libOS
// can issue them zero-copy without intermediate buffering.
constexpr size_t kSgaMaxSegments = 4;

struct SgaSegment {
  void* buf = nullptr;
  uint32_t len = 0;
};

struct Sgarray {
  uint32_t num_segs = 0;
  SgaSegment segs[kSgaMaxSegments] = {};

  static Sgarray Of(void* buf, uint32_t len) {
    Sgarray sga;
    sga.num_segs = 1;
    sga.segs[0] = {buf, len};
    return sga;
  }

  size_t TotalBytes() const {
    size_t total = 0;
    for (uint32_t i = 0; i < num_segs; i++) {
      total += segs[i].len;
    }
    return total;
  }
};

enum class OpCode : uint8_t { kInvalid, kPush, kPop, kAccept, kConnect, kSplice };

// Completion record returned by wait_*; the qevent of the PDPIX API.
struct QResult {
  OpCode opcode = OpCode::kInvalid;
  QueueDesc qd = kInvalidQd;
  Status status = Status::kOk;
  // pop: received data. Buffers are allocated from the DMA-capable heap and OWNED BY THE
  // APPLICATION on return (free with DmaFree / demi::free).
  Sgarray sga;
  // pop on UDP sockets: datagram source. accept: peer address.
  SocketAddress remote;
  // accept: descriptor of the new connection queue.
  QueueDesc new_qd = kInvalidQd;
  // splice: total payload bytes moved end to end before the op completed. file push: the
  // bytes its log still has free once the record is durable.
  uint64_t bytes = 0;
  // file push: the record's log offset, which truncate takes.
  uint64_t offset = 0;
};

}  // namespace demi

#endif  // SRC_CORE_TYPES_H_
