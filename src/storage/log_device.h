// LogDevice: the abstract log Cattree maps PDPIX queues onto (paper §6.4).
//
// A circular record log over SimBlockDevice. push appends records; pop reads from a cursor;
// truncate frees the space below an offset for later appends. The log is driven the way
// Cattree drives SPDK: Start* submits an append or a read without a coroutine, and PollDevice,
// called from the owning libOS's fast path, finishes it — multi-block reads, pad skips and
// retries included — and notifies its Io's `done` wait list. An append finishes when the device
// write is durable.
//
// Group commit: one write is in flight at a time. Appends started meanwhile wait in a FIFO;
// when the write completes, every packed append at the head of the FIFO is composed into one
// block image, packed exactly as sequential appends would be (each record with its own header
// and epoch), and written at once. The batch is whatever queued while the last write was in
// flight. A scatter-gather append writes alone. Every Io in a write finishes, with its result,
// in the PollDevice that drains it.
//
// On-device format (docs/STORAGE.md): a sequence of records, each
//   [magic u32][payload_len u32][epoch u64][payload_crc u32][header_crc u32]
//   [payload bytes][zero padding to 8-byte alignment]
// plus 8-byte pad markers ([pad magic u32][skip u32]) that block-align scatter-gather records
// and skip the space before the partition end that the next unit does not fit in.
// Recovery accepts a record only if both CRCs verify and its epoch is strictly greater than the
// previous record's — a torn write (prefix on media, error returned) can forge magic+length but
// not the payload CRC, so recovery stops at the last durable record.
//
// Wrap-around: offsets are logical and only grow; a unit's media offset is its offset modulo
// the partition size. No unit and no write crosses the partition end: a pad marker in a write
// of its own skips to the end, and placement resumes at the start. An append that would
// overwrite a byte at or above the head (not yet truncated) fails with kNoBufferSpace. A log
// that never wrapped is laid out exactly as an append-only one. Recovery of a wrapped partition
// starts at the oldest valid epoch: the older lap's units that survive after the newest lap
// (docs/STORAGE.md).
//
// Partitioning: a LogDevice may own a contiguous block range of a shared device (LogPartition)
// with an allocation epoch shared across all partitions; see PartitionedLog for the coordinator
// that carves the ranges and stitches recovery back together in epoch order.

#ifndef SRC_STORAGE_LOG_DEVICE_H_
#define SRC_STORAGE_LOG_DEVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/memory/buffer.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/wait_list.h"
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

  // One append or read, from Start* until PollDevice finishes it. Its owner keeps it in place
  // while it is kBusy, and with it the slices an append gathers and the allocator a read
  // draws on; `done` is notified as it turns kDone.
  class Io {
   public:
    enum State : uint8_t { kIdle, kBusy, kDone };

    State state = kIdle;          // the owner sets kIdle again once it took a kDone result
    Status status = Status::kOk;  // the result, once kDone
    uint64_t offset = 0;          // a done append: the record's (logical) byte offset
    ReadResult record;            // a done read: the record
    WaitList done;

   private:
    friend class LogDevice;
    PoolAllocator* alloc_ = nullptr;  // a read: the allocator it draws on; null for an append
    bool sg_ = false;                 // an append placed and written as StartAppendSg says
    uint64_t lba_ = 0;                // the current device I/O's first block
    uint32_t attempt_ = 0;            // its failed attempts so far
    // An append's payload slices; once composed, the first append of a write holds that
    // write's gather list (the batch image, or SG's image_, slices and trailer_).
    std::vector<std::span<const uint8_t>> iov_;
    std::vector<uint8_t> image_;    // SG: the lead block and header
    std::vector<uint8_t> trailer_;  // SG: the flattened payload (if any), zero fill, pad marker
    uint32_t len_ = 0;  // the record's payload bytes
    uint32_t crc_ = 0;  // a read: the payload CRC its header holds
    uint64_t cursor_ = 0;  // a read: the unit it is reading
    uint64_t next_ = 0;    // a read: the unit after that record
    bool payload_ = false;  // a read: buf_ holds the payload's blocks, not the header's
    Buffer buf_;            // a read: what the device reads into
  };

  // Appends one record whose payload is the concatenation of `slices`, packed right after the
  // previous record: the slices are copied once, into the block image that also carries the
  // partial tail block and the other appends of its write. Records reach the device in the
  // order their appends started; a done `io` holds the record's offset.
  void StartAppend(Io& io, std::span<const std::span<const uint8_t>> slices);

  // As StartAppend, but written alone via the device's gather DMA — the payload bytes are
  // never copied host-side. The record is placed on a block boundary (pad markers fill the
  // gaps) so the tail-block cache never needs payload bytes.
  void StartAppendSg(Io& io, std::span<const std::span<const uint8_t>> slices);

  // Reads the record at `cursor` (skipping pad markers); fails with kEndOfFile at the tail,
  // kProtocolError on a corrupt unit or CRC, kInvalidArgument below the GC head and kNoMemory
  // when `alloc` can't cover the read. A payload inside the block(s) holding its header comes
  // back as a slice of that one read; a longer one as a view over a single allocation spanning
  // its blocks (the disk→NIC splice path pushes it without a copy).
  void StartRead(Io& io, uint64_t cursor, PoolAllocator& alloc);

  // Takes back an append that still waits in the FIFO, not yet composed into a write: it
  // finishes with kCancelled and leaves nothing on the media. Returns false, and leaves `io`
  // alone, when its write is already on the device.
  bool CancelAppend(Io& io);

  // Garbage collection: records below `offset` become unreadable, and their space is free
  // for appends.
  [[nodiscard]] Status Truncate(uint64_t offset);

  // Drains the device completions due by `now`, advances the I/Os they belong to and starts
  // the next write, of every append queued, once the write in flight is done. Called from the owning libOS's
  // fast path with the poll's time.
  void PollDevice(TimeNs now);

  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }
  const LogPartition& partition() const { return part_; }
  uint64_t CapacityBytes() const { return part_bytes_; }
  // What appends may still take before the tail catches up with the head.
  uint64_t FreeBytes() const { return part_bytes_ - (tail_ - head_); }

  // Rebuilds head_/tail_ by scanning this partition (crash-recovery path, synchronous). Only
  // CRC-verified records with strictly increasing epochs count; a torn prefix is not recovered.
  // The head is the oldest record recovered: what was truncated but not yet overwritten comes
  // back too, as truncation is not written to the media.
  [[nodiscard]] Status Recover();

  // One recovered record's location (shared by Recover and PartitionedLog::RecoverAll).
  struct RecordInfo {
    uint64_t offset = 0;  // partition-relative byte offset of the header on the media
    uint32_t len = 0;     // payload bytes
    uint64_t epoch = 0;
  };
  // Synchronous media scan of `partition` applying the recovery rules; appends accepted
  // records to `out` (may be null) oldest first, and returns the rebuilt (logical) tail
  // offset. The oldest record is in lap 0, so its media offset is also its logical one.
  static uint64_t ScanPartition(const SimBlockDevice& device, const LogPartition& partition,
                                std::vector<RecordInfo>* out);
  // Moves `epoch` past `max_epoch`, the largest recovered epoch, so appends after recovery keep
  // every partition's epochs strictly increasing. Recovery only: nothing may append meanwhile.
  static void SeedEpochPast(std::atomic<uint64_t>& epoch, uint64_t max_epoch);

  // Bounded exponential backoff (doubling, capped at kMaxRetryBackoff) applied to transient
  // device I/O errors (injected faults, flaky media): each backoff is a wheel timer that
  // resubmits the I/O. After 1 + max_retries failed attempts the last error becomes terminal
  // and propagates to the Io — and from there through Cattree to the waiting qtoken.
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
  void QueueAppend(Io& io, std::span<const std::span<const uint8_t>> slices, bool sg);
  // Composes and submits the next write while none is in flight: the packed appends at the
  // head of appends_, or the SG append there.
  void StartQueuedAppends();
  // Places the packed appends at the head of appends_ one after another from the tail,
  // composes them into image_ and submits it as one write.
  void ComposeBatch();
  // Places the SG append block-aligned at the tail, builds its gather list and submits it.
  void ComposeSg(Io& io);
  // Where a unit of `bytes` that would start at `start` (>= tail_, in tail_'s lap) goes.
  enum class Placement { kFits, kWrap, kFull };
  Placement Place(uint64_t start, uint64_t bytes) const;
  // Submits wrap_: a pad marker from the tail to the partition end, which moves the tail to
  // the next lap's start.
  void ComposeWrap();
  // Reads the block(s) holding the header of the unit at io.cursor_.
  void ReadUnit(Io& io);
  // Reads every block holding partition bytes [from, to) into one allocation, io.buf_.
  void ReadBlocks(Io& io, uint64_t from, uint64_t to);
  // Decodes a read's blocks: skips a pad, reads a long payload's blocks, or finishes.
  void OnRead(Io& io);
  // Starts a fresh device I/O at `lba` with a full retry budget.
  void StartDeviceIo(Io& io, uint64_t lba);
  // One attempt of io's device I/O; a kQueueFull refusal is resubmitted at the next PollDevice.
  void Submit(Io& io);
  void OnDeviceComplete(Io& io, Status status, TimeNs now);
  void Finish(Io& io, Status status);
  // Ends `io`'s device I/O with `status`: a read finishes; a write finishes every append in it.
  void EndDeviceIo(Io& io, Status status);
  // Composes the 24-byte record header for `payload_len` bytes with `crc`, stamping a fresh
  // epoch: the only code that writes a header. Records are composed one at a time, in FIFO
  // order, so per-partition epochs stay strictly increasing.
  std::array<uint8_t, kHeaderSize> MakeHeader(uint32_t payload_len, uint32_t payload_crc);
  uint64_t DeviceLba(uint64_t byte_offset) const {
    return part_.first_block + byte_offset % part_bytes_ / block_size_;
  }
  // The end of the lap that holds `offset` (the next lap's start).
  uint64_t LapEnd(uint64_t offset) const { return (offset / part_bytes_ + 1) * part_bytes_; }
  // Whether a write that ends at `end` overwrites no byte at or above the head: writes cover
  // whole blocks.
  bool Fits(uint64_t end) const {
    return (end + block_size_ - 1) / block_size_ * block_size_ - head_ <= part_bytes_;
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

  uint64_t head_ = 0;  // oldest readable byte (logical)
  uint64_t tail_ = 0;  // next append offset (logical)
  std::vector<uint8_t> tail_block_cache_;  // in-memory copy of the partial tail block

  std::vector<Io*> batch_;    // the appends in the write in flight (one write at a time)
  Io wrap_;                   // the write that closes a lap
  uint64_t batch_tail_ = 0;   // the tail once that write is durable
  std::vector<uint8_t> image_;  // the batch write's block image, reused from write to write
  std::deque<Io*> appends_;   // appends waiting for the next write, oldest first
  std::vector<Io*> refused_;  // I/Os the device refused with kQueueFull
  uint64_t next_cookie_ = 1;
  std::unordered_map<uint64_t, Io*> waiting_;  // device I/Os in flight, by cookie
  RetryPolicy retry_;
  Stats stats_;
};

}  // namespace demi

#endif  // SRC_STORAGE_LOG_DEVICE_H_
