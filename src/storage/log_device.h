// LogDevice: the abstract log Cattree maps PDPIX queues onto (paper §6.4).
//
// An append-only record log over SimBlockDevice. push appends records; pop reads from a cursor;
// truncate garbage-collects logically. Appends resolve when the underlying device write
// completes (durability), which Cattree awaits from an application coroutine while the fast-path
// coroutine polls device completions — the SPDK interaction pattern the paper describes.
//
// On-device format (docs/STORAGE.md): a sequence of records, each
//   [magic u32][payload_len u32][epoch u64][payload_crc u32][header_crc u32]
//   [payload bytes][zero padding to 8-byte alignment]
// plus 8-byte pad markers ([pad magic u32][skip u32]) that block-align scatter-gather records.
// Recovery scans from offset 0 and accepts a record only if both CRCs verify and its epoch is
// strictly greater than the previous record's — a torn write (prefix on media, error returned)
// can forge magic+length but not the payload CRC, so recovery stops at the last durable record.
//
// Partitioning: a LogDevice may own a contiguous block range of a shared device (LogPartition)
// with an allocation epoch shared across all partitions; see PartitionedLog for the coordinator
// that carves the ranges and stitches recovery back together in epoch order.

#ifndef SRC_STORAGE_LOG_DEVICE_H_
#define SRC_STORAGE_LOG_DEVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/memory/buffer.h"
#include "src/runtime/event.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"
#include "src/storage/sim_block_device.h"

namespace demi {

class MetricsRegistry;

// A contiguous block range of a shared device owned by one LogDevice (one shard). The default
// (num_blocks = 0) means "the whole device", which is the classic single-worker layout.
struct LogPartition {
  uint64_t first_block = 0;
  uint64_t num_blocks = 0;  // 0 = to the end of the device
  uint32_t id = 0;          // shard index; doubles as the device completion queue
};

class LogDevice {
 public:
  // `epoch` is the allocation epoch shared across every partition of one device (stamped into
  // each record header; recovery orders cross-partition records by it). Null uses a private
  // counter — correct for a sole whole-device log.
  LogDevice(SimBlockDevice& device, Scheduler& scheduler, const LogPartition& partition = {},
            std::atomic<uint64_t>* epoch = nullptr);

  // One record read off the log: its payload as a Buffer view over pool memory the device
  // DMAed into, and the cursor of the unit after it.
  struct ReadResult {
    Buffer payload;
    uint64_t next_cursor = 0;
  };

  // Appends one record whose payload is the concatenation of `slices`, packed right after the
  // previous record: the slices are copied once, into the block image that also carries the
  // partial tail block. Resumes when the write is durable; returns the record's byte offset.
  // Appends from multiple coroutines are serialized internally.
  Task<Result<uint64_t>> Append(std::span<const std::span<const uint8_t>> slices);

  // As Append, but written via the device's gather DMA — the payload bytes are never copied
  // host-side. The record is placed on a block boundary (pad markers fill the gaps) so the
  // tail-block cache never needs payload bytes. Slices must stay valid until the task
  // completes (the awaiting splice op holds the Buffer references).
  Task<Result<uint64_t>> AppendSg(std::span<const std::span<const uint8_t>> slices);

  // Reads the record at `cursor` (skipping pad markers); fails with kEndOfFile at the tail,
  // kProtocolError on a corrupt unit or CRC, kInvalidArgument below the GC head and kNoMemory
  // when `alloc` can't cover the read. A payload inside the block(s) holding its header comes
  // back as a slice of that one read; a longer one as a view over a single allocation spanning
  // its blocks (the disk→NIC splice path pushes it without a copy).
  Task<Result<ReadResult>> Read(uint64_t cursor, PoolAllocator& alloc);

  // Logical garbage collection: records below `offset` become unreadable.
  [[nodiscard]] Status Truncate(uint64_t offset);

  // Drains the device completions due by `now` and wakes blocked appenders/readers. Called
  // from the owning libOS's fast-path coroutine with the poll's time.
  void PollDevice(TimeNs now);

  // True when asynchronous work is pending (drives fast-path polling decisions).
  bool HasPendingIo() const { return outstanding_ > 0; }
  TimeNs NextCompletionTime() const { return device_.NextCompletionTime(); }

  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }
  const LogPartition& partition() const { return part_; }
  uint64_t CapacityBytes() const { return part_bytes_; }

  // Rebuilds head_/tail_ by scanning this partition (crash-recovery path, synchronous). Only
  // CRC-verified records with strictly increasing epochs count; a torn prefix is not recovered.
  [[nodiscard]] Status Recover();

  // One recovered record's location (shared by Recover and PartitionedLog::RecoverAll).
  struct RecordInfo {
    uint64_t offset = 0;  // partition-relative byte offset of the header
    uint32_t len = 0;     // payload bytes
    uint64_t epoch = 0;
  };
  // Synchronous media scan of `partition` applying the recovery rules; appends accepted
  // records to `out` (may be null) and returns the rebuilt tail offset.
  static uint64_t ScanPartition(const SimBlockDevice& device, const LogPartition& partition,
                                std::vector<RecordInfo>* out);
  // Moves `epoch` past `max_epoch`, the largest recovered epoch, so appends after recovery keep
  // every partition's epochs strictly increasing. Recovery only: nothing may append meanwhile.
  static void SeedEpochPast(std::atomic<uint64_t>& epoch, uint64_t max_epoch);

  // Bounded exponential backoff (doubling, capped at kMaxRetryBackoff) applied to transient
  // device I/O errors (injected faults, flaky media). After 1 + max_retries failed attempts the
  // last error becomes terminal and propagates to the caller — and from there through Cattree
  // to the waiting qtoken.
  struct RetryPolicy {
    uint32_t max_retries = 6;
    DurationNs initial_backoff = 10 * kMicrosecond;
  };
  static constexpr DurationNs kMaxRetryBackoff = 1 * kMillisecond;
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  struct Stats {
    uint64_t io_retries = 0;          // transient device errors absorbed by backoff+retry
    uint64_t io_terminal_errors = 0;  // retry budget exhausted; error surfaced to the caller
    uint64_t sg_appends = 0;          // scatter-gather (splice) records written
    uint64_t pad_bytes = 0;           // alignment pad bytes written around SG records
    uint64_t bounce_bytes = 0;        // payload bytes the SG path had to flatten host-side
                                      // (slice count over the device SGL limit); 0 = zero-copy
    uint64_t last_epoch = 0;          // epoch stamped into the most recent append
  };
  const Stats& stats() const { return stats_; }

  // Exposes the retry counters and partition identity as `log.*` metrics
  // (see docs/OBSERVABILITY.md).
  void RegisterMetrics(MetricsRegistry& registry);

  static constexpr size_t kHeaderSize = 24;

 private:
  struct IoWait {
    bool done = false;
    Status status = Status::kOk;  // completion status from the device
    Event event;
  };

  // One submission attempt: retries while the device queue is full, then awaits the completion
  // and returns its status. A read fills `read_into`; a write (`read_into` empty) gathers
  // `write_from`.
  Task<Status> SubmitOnceAndWait(uint64_t lba, std::span<uint8_t> read_into,
                                 std::span<const std::span<const uint8_t>> write_from);
  // SubmitOnceAndWait with transient-error retry per retry_policy(); returns the terminal
  // status once the op succeeds or the budget is spent.
  Task<Status> SubmitAndWait(uint64_t lba, std::span<uint8_t> read_into,
                             std::span<const std::span<const uint8_t>> write_from);
  Task<void> AcquireAppendLock();
  void ReleaseAppendLock();
  // Composes the 24-byte record header for `payload_len` bytes with `crc`, stamping a fresh
  // epoch: the only code that writes a header. Must run under the append lock so
  // per-partition epochs stay strictly increasing.
  std::array<uint8_t, kHeaderSize> MakeHeader(uint32_t payload_len, uint32_t payload_crc);
  uint64_t DeviceLba(uint64_t byte_offset) const {
    return part_.first_block + byte_offset / block_size_;
  }

  SimBlockDevice& device_;
  Scheduler& scheduler_;
  const size_t block_size_;
  LogPartition part_;
  uint64_t part_bytes_ = 0;
  // demilint: atomic(standalone-log fallback for the shared allocation epoch; atomic only
  // so epoch_ has one type whether it points here (single owner) or at PartitionedLog's
  // truly shared counter — see partitioned_log.h for the relaxed-ordering argument)
  std::atomic<uint64_t> local_epoch_{1};
  std::atomic<uint64_t>* epoch_;  // shared across partitions, or &local_epoch_

  uint64_t head_ = 0;  // oldest readable byte (partition-relative)
  uint64_t tail_ = 0;  // next append offset (partition-relative)
  std::vector<uint8_t> tail_block_cache_;  // in-memory copy of the partial tail block

  bool append_locked_ = false;
  Event append_lock_released_;

  uint64_t next_cookie_ = 1;
  size_t outstanding_ = 0;
  std::unordered_map<uint64_t, IoWait*> waiting_;
  RetryPolicy retry_;
  Stats stats_;
};

}  // namespace demi

#endif  // SRC_STORAGE_LOG_DEVICE_H_
