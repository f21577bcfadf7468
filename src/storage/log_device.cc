#include "src/storage/log_device.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/observability/metrics.h"

namespace demi {

namespace {

constexpr uint32_t kRecordMagic = 0x4C4F4752;  // "LOGR"
constexpr uint32_t kPadMagic = 0x4C4F4750;     // "LOGP"
constexpr size_t kAlign = 8;
constexpr size_t kPadHeaderSize = 8;
constexpr size_t kHeaderCrcBytes = 20;  // the header CRC covers every header byte before it

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

template <typename T>
void Put(uint8_t* dst, T v) {
  std::memcpy(dst, &v, sizeof(v));
}
template <typename T>
T Get(const uint8_t* src) {
  T v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

void PutPad(uint8_t* dst, uint64_t skip) {
  Put<uint32_t>(dst, kPadMagic);
  Put<uint32_t>(dst + 4, static_cast<uint32_t>(skip));
}

// One unit of the log's byte stream, decoded from the bytes at a cursor.
struct Unit {
  enum Kind { kPad, kRecord, kCorrupt };
  Kind kind = kCorrupt;
  uint64_t next = 0;  // cursor of the following unit
  uint32_t len = 0;   // record payload bytes
  uint64_t epoch = 0;
  uint32_t payload_crc = 0;
};

// The one decoder of the record format: classifies the `bytes` at `cursor` as a pad marker, a
// record whose header CRC verifies, or corrupt. Neither unit may extend past `limit` (the tail
// online, the partition capacity in recovery). The payload CRC is the caller's to check.
Unit DecodeUnit(std::span<const uint8_t> bytes, uint64_t cursor, uint64_t limit) {
  Unit u;
  if (bytes.size() < kPadHeaderSize) {
    return u;
  }
  const uint32_t magic = Get<uint32_t>(bytes.data());
  if (magic == kPadMagic) {
    const uint32_t skip = Get<uint32_t>(bytes.data() + 4);
    if (skip >= kPadHeaderSize && skip % kAlign == 0 && cursor + skip <= limit) {
      u.kind = Unit::kPad;
      u.next = cursor + skip;
    }
    return u;
  }
  if (magic != kRecordMagic || bytes.size() < LogDevice::kHeaderSize ||
      Crc32(bytes.data(), kHeaderCrcBytes) != Get<uint32_t>(bytes.data() + kHeaderCrcBytes)) {
    return u;  // not a unit, cut off, or a torn header
  }
  u.len = Get<uint32_t>(bytes.data() + 4);
  u.next = cursor + AlignUp(LogDevice::kHeaderSize + u.len, kAlign);
  if (u.next <= limit) {
    u.kind = Unit::kRecord;
    u.epoch = Get<uint64_t>(bytes.data() + 8);
    u.payload_crc = Get<uint32_t>(bytes.data() + 16);
  }
  return u;
}

// Length and CRC of the payload `slices` concatenate to: the prologue both appends share.
struct PayloadSummary {
  uint32_t len = 0;
  uint32_t crc = 0;
};
Result<PayloadSummary> Summarize(std::span<const std::span<const uint8_t>> slices) {
  uint64_t len = 0;
  uint32_t crc = 0;
  for (const auto& s : slices) {
    len += s.size();
    crc = Crc32(s.data(), s.size(), crc);
  }
  if (len > UINT32_MAX) {
    return Status::kMessageTooLong;
  }
  return PayloadSummary{static_cast<uint32_t>(len), crc};
}

// Resolves the "num_blocks = 0 means to the end of the device" default and checks the range.
LogPartition Resolve(LogPartition part, const SimBlockDevice& device) {
  const uint64_t device_blocks = device.config().num_blocks;
  DEMI_CHECK_MSG(part.first_block <= device_blocks, "log partition starts past the device");
  if (part.num_blocks == 0) {
    part.num_blocks = device_blocks - part.first_block;
  }
  DEMI_CHECK_MSG(part.first_block + part.num_blocks <= device_blocks,
                 "log partition exceeds the device");
  return part;
}

}  // namespace

void LogDevice::RegisterMetrics(MetricsRegistry& registry) {
  registry.RegisterCounter("log.io_retries", "ops", [this] { return stats_.io_retries; });
  registry.RegisterCounter("log.io_terminal_errors", "ops",
                           [this] { return stats_.io_terminal_errors; });
  registry.RegisterCounter("log.sg_appends", "ops", [this] { return stats_.sg_appends; });
  registry.RegisterCounter("log.pad_bytes", "bytes", [this] { return stats_.pad_bytes; });
  registry.RegisterCounter("log.epoch", "count", [this] { return stats_.last_epoch; });
  registry.RegisterGauge("log.partition_id", "index").Set(static_cast<int64_t>(part_.id));
  registry.RegisterGauge("log.partition_blocks", "count")
      .Set(static_cast<int64_t>(part_bytes_ / block_size_));
}

LogDevice::LogDevice(SimBlockDevice& device, Scheduler& scheduler, const LogPartition& partition,
                     std::atomic<uint64_t>* epoch)
    : device_(device),
      scheduler_(scheduler),
      block_size_(device.config().block_size),
      part_(Resolve(partition, device)),
      part_bytes_(part_.num_blocks * block_size_),
      epoch_(epoch != nullptr ? epoch : &local_epoch_) {
  tail_block_cache_.assign(block_size_, 0);
}

Task<void> LogDevice::AcquireAppendLock() {
  while (append_locked_) {
    co_await append_lock_released_.Wait();
  }
  append_locked_ = true;
}

void LogDevice::ReleaseAppendLock() {
  append_locked_ = false;
  append_lock_released_.Notify();
}

std::array<uint8_t, LogDevice::kHeaderSize> LogDevice::MakeHeader(uint32_t payload_len,
                                                                  uint32_t payload_crc) {
  // demilint: atomic(relaxed is sufficient: the single modification order of the shared
  // epoch makes every draw unique across shards, and one shard's draws are monotonic
  // because its own RMWs are ordered. The record carrying this epoch travels through the
  // shard's own partition, never through the counter — see docs/STORAGE.md audit)
  const uint64_t epoch = epoch_->fetch_add(1, std::memory_order_relaxed);
  stats_.last_epoch = epoch;
  std::array<uint8_t, kHeaderSize> hdr{};
  Put<uint32_t>(hdr.data(), kRecordMagic);
  Put<uint32_t>(hdr.data() + 4, payload_len);
  Put<uint64_t>(hdr.data() + 8, epoch);
  Put<uint32_t>(hdr.data() + 16, payload_crc);
  Put<uint32_t>(hdr.data() + kHeaderCrcBytes, Crc32(hdr.data(), kHeaderCrcBytes));
  return hdr;
}

Task<Status> LogDevice::SubmitOnceAndWait(uint64_t lba, std::span<uint8_t> read_into,
                                          std::span<const std::span<const uint8_t>> write_from) {
  IoWait wait;
  const uint64_t cookie = next_cookie_++;
  for (;;) {
    const Status s = read_into.empty()
                         ? device_.SubmitWritev(lba, write_from, cookie, part_.id)
                         : device_.SubmitRead(lba, read_into, cookie, part_.id);
    if (s == Status::kOk) {
      break;
    }
    if (s != Status::kQueueFull) {
      co_return s;
    }
    co_await Scheduler::Yield{};  // device queue full: let the poller drain completions
  }
  outstanding_++;
  waiting_[cookie] = &wait;
  while (!wait.done) {
    co_await wait.event.Wait();
  }
  co_return wait.status;
}

Task<Status> LogDevice::SubmitAndWait(uint64_t lba, std::span<uint8_t> read_into,
                                      std::span<const std::span<const uint8_t>> write_from) {
  DurationNs backoff = retry_.initial_backoff;
  for (uint32_t attempt = 0;; attempt++) {
    const Status s = co_await SubmitOnceAndWait(lba, read_into, write_from);
    if (s != Status::kIoError) {
      co_return s;  // success, or a non-retryable submission error
    }
    if (attempt >= retry_.max_retries) {
      stats_.io_terminal_errors++;
      co_return s;  // budget spent: the terminal error propagates to the qtoken
    }
    stats_.io_retries++;
    co_await scheduler_.Sleep(backoff);
    backoff = std::min<DurationNs>(backoff * 2, kMaxRetryBackoff);
  }
}

Task<Result<uint64_t>> LogDevice::Append(std::span<const std::span<const uint8_t>> slices) {
  const Result<PayloadSummary> payload = Summarize(slices);
  if (!payload.ok()) {
    co_return payload.error();
  }
  co_await AcquireAppendLock();
  // RAII is awkward across co_return paths here; release explicitly on every exit.
  const uint64_t record_offset = tail_;
  const uint64_t new_tail = tail_ + AlignUp(kHeaderSize + payload->len, kAlign);
  if (new_tail > part_bytes_) {
    ReleaseAppendLock();
    co_return Status::kNoBufferSpace;
  }

  // Compose the affected block range: the (possibly partial) tail block comes from the cache so
  // previously appended bytes in the same block are preserved. The cache itself is only updated
  // after the device acknowledges the write — a retried or terminally failed attempt must not
  // leave phantom bytes in the next append's block image.
  const uint64_t first_block = tail_ / block_size_;
  const size_t nblocks = static_cast<size_t>((new_tail - 1) / block_size_ - first_block + 1);
  std::vector<uint8_t> io(nblocks * block_size_, 0);
  std::memcpy(io.data(), tail_block_cache_.data(), block_size_);
  uint8_t* dst = io.data() + (tail_ - first_block * block_size_);
  const auto hdr = MakeHeader(payload->len, payload->crc);
  std::memcpy(dst, hdr.data(), kHeaderSize);
  dst += kHeaderSize;
  for (const auto& s : slices) {
    if (!s.empty()) {
      std::memcpy(dst, s.data(), s.size());
      dst += s.size();
    }
  }

  const std::span<const uint8_t> image[] = {io};
  const Status s = co_await SubmitAndWait(DeviceLba(tail_), {}, image);
  if (s != Status::kOk) {
    ReleaseAppendLock();
    co_return s;
  }

  // Acknowledged: commit the new partial last block to the cache and advance the tail.
  std::memcpy(tail_block_cache_.data(), io.data() + (nblocks - 1) * block_size_, block_size_);
  tail_ = new_tail;
  ReleaseAppendLock();
  co_return record_offset;
}

Task<Result<uint64_t>> LogDevice::AppendSg(std::span<const std::span<const uint8_t>> slices) {
  const Result<PayloadSummary> payload = Summarize(slices);
  if (!payload.ok()) {
    co_return payload.error();
  }
  const uint32_t payload_len = payload->len;
  co_await AcquireAppendLock();

  // Block-align the record: a leading pad marker fills the current tail block (its image comes
  // from the cache, never from payload), and a trailing pad fills out the last block, so after
  // the append the tail-block cache is simply empty. That is what keeps this path zero-copy —
  // no payload byte is ever staged host-side to rebuild a shared block.
  const uint64_t gap1 = (block_size_ - tail_ % block_size_) % block_size_;
  const uint64_t record_off = tail_ + gap1;
  const uint64_t rec_aligned = AlignUp(kHeaderSize + payload_len, kAlign);
  const uint64_t gap2 = (block_size_ - (record_off + rec_aligned) % block_size_) % block_size_;
  const uint64_t new_tail = record_off + rec_aligned + gap2;
  if (new_tail > part_bytes_) {
    ReleaseAppendLock();
    co_return Status::kNoBufferSpace;
  }

  const auto hdr = MakeHeader(payload_len, payload->crc);

  std::vector<std::span<const uint8_t>> iov;
  iov.reserve(slices.size() + 3);

  std::vector<uint8_t> lead;
  if (gap1 > 0) {
    lead = tail_block_cache_;
    const size_t in_off = static_cast<size_t>(tail_ % block_size_);
    std::fill(lead.begin() + in_off, lead.end(), 0);
    PutPad(lead.data() + in_off, gap1);
    iov.emplace_back(lead.data(), lead.size());
  }
  iov.emplace_back(hdr.data(), hdr.size());

  // Flatten only if the slice list exceeds the device SGL limit (counted: this is the one
  // bounce path, and splice batches are sized to never hit it).
  std::vector<uint8_t> flat;
  const size_t budget = SimBlockDevice::kMaxWritevSegments - iov.size() - 1;
  if (slices.size() > budget) {
    flat.reserve(payload_len);
    for (const auto& s : slices) {
      flat.insert(flat.end(), s.begin(), s.end());
    }
    stats_.bounce_bytes += flat.size();
    iov.emplace_back(flat.data(), flat.size());
  } else {
    for (const auto& s : slices) {
      if (!s.empty()) {
        iov.emplace_back(s.data(), s.size());
      }
    }
  }

  // Trailer: zero fill to 8-byte alignment, then a pad marker covering the rest of the block.
  std::vector<uint8_t> trailer(static_cast<size_t>(new_tail - record_off - kHeaderSize -
                                                   payload_len),
                               0);
  if (gap2 > 0) {
    PutPad(trailer.data() + (rec_aligned - kHeaderSize - payload_len), gap2);
  }
  if (!trailer.empty()) {
    iov.emplace_back(trailer.data(), trailer.size());
  }

  const uint64_t first_byte = gap1 > 0 ? tail_ - tail_ % block_size_ : tail_;
  const Status s = co_await SubmitAndWait(DeviceLba(first_byte), {}, iov);
  if (s != Status::kOk) {
    ReleaseAppendLock();
    co_return s;
  }

  stats_.sg_appends++;
  stats_.pad_bytes += (new_tail - tail_) - (kHeaderSize + payload_len);
  tail_ = new_tail;  // block-aligned: the tail block is fresh and the cache all zeros
  std::fill(tail_block_cache_.begin(), tail_block_cache_.end(), 0);
  ReleaseAppendLock();
  co_return record_off;
}

Task<Result<LogDevice::ReadResult>> LogDevice::Read(uint64_t cursor, PoolAllocator& alloc) {
  for (;;) {
    if (cursor < head_) {
      co_return Status::kInvalidArgument;
    }
    if (cursor >= tail_) {
      co_return Status::kEndOfFile;
    }
    // Read the block(s) holding the header (it can straddle a block boundary) into pool
    // memory; a payload that ends inside them is served from this one read.
    const uint64_t first_block = cursor / block_size_;
    const uint64_t end_block =
        std::min((cursor + kHeaderSize - 1) / block_size_ + 1, part_.num_blocks);
    Buffer io = Buffer::TryAllocate(alloc, (end_block - first_block) * block_size_);
    if (!io.valid()) {
      co_return Status::kNoMemory;
    }
    Status s = co_await SubmitAndWait(DeviceLba(cursor), {io.mutable_data(), io.size()}, {});
    if (s != Status::kOk) {
      co_return s;
    }
    const size_t in_off = static_cast<size_t>(cursor % block_size_);
    const Unit unit = DecodeUnit({io.data() + in_off, io.size() - in_off}, cursor, tail_);
    if (unit.kind == Unit::kCorrupt) {
      co_return Status::kProtocolError;
    }
    if (unit.kind == Unit::kPad) {
      cursor = unit.next;  // alignment filler between records
      continue;
    }

    const uint64_t payload_start = cursor + kHeaderSize;
    size_t view_off = in_off + kHeaderSize;
    if (payload_start + unit.len > end_block * block_size_) {
      // One pool allocation covers every block the payload touches; the device DMAs into it
      // and the returned view slices the payload out of it — no host-side payload copy.
      const uint64_t span_first = payload_start / block_size_;
      const uint64_t span_last = (payload_start + unit.len - 1) / block_size_;
      io = Buffer::TryAllocate(alloc, (span_last - span_first + 1) * block_size_);
      if (!io.valid()) {
        co_return Status::kNoMemory;
      }
      s = co_await SubmitAndWait(DeviceLba(payload_start), {io.mutable_data(), io.size()}, {});
      if (s != Status::kOk) {
        co_return s;
      }
      view_off = static_cast<size_t>(payload_start % block_size_);
    }
    if (Crc32(io.data() + view_off, unit.len) != unit.payload_crc) {
      co_return Status::kProtocolError;
    }
    co_return ReadResult{io.Slice(view_off, unit.len), unit.next};
  }
}

Status LogDevice::Truncate(uint64_t offset) {
  if (offset > tail_) {
    return Status::kInvalidArgument;
  }
  if (offset > head_) {
    head_ = offset;
  }
  return Status::kOk;
}

void LogDevice::PollDevice(TimeNs now) {
  SimBlockDevice::Completion comps[16];
  for (;;) {
    const size_t n = device_.PollCompletions(comps, part_.id, now);
    for (size_t i = 0; i < n; i++) {
      auto it = waiting_.find(comps[i].cookie);
      if (it != waiting_.end()) {
        it->second->done = true;
        it->second->status = comps[i].status;
        it->second->event.Notify();
        waiting_.erase(it);
        outstanding_--;
      }
    }
    if (n < std::size(comps)) {
      return;  // a short batch drained the queue; only a full one may have left more
    }
  }
}

uint64_t LogDevice::ScanPartition(const SimBlockDevice& device, const LogPartition& partition,
                                  std::vector<RecordInfo>* out) {
  const size_t block_size = device.config().block_size;
  const LogPartition part = Resolve(partition, device);
  const uint64_t base = part.first_block * block_size;
  const uint64_t cap = part.num_blocks * block_size;
  uint64_t cursor = 0;
  uint64_t last_epoch = 0;
  std::array<uint8_t, kHeaderSize> hdr{};
  std::vector<uint8_t> payload;
  while (cursor < cap) {
    const size_t avail = static_cast<size_t>(std::min<uint64_t>(kHeaderSize, cap - cursor));
    device.RawRead(base + cursor, {hdr.data(), avail});
    const Unit unit = DecodeUnit({hdr.data(), avail}, cursor, cap);
    if (unit.kind == Unit::kPad) {
      cursor = unit.next;
      continue;
    }
    if (unit.kind == Unit::kCorrupt || unit.epoch <= last_epoch) {
      break;  // torn or out of bounds, or epoch monotonicity broken (stale data)
    }
    payload.resize(unit.len);
    if (unit.len > 0) {
      device.RawRead(base + cursor + kHeaderSize, payload);
    }
    if (Crc32(payload.data(), payload.size()) != unit.payload_crc) {
      break;  // torn payload: the record never became durable
    }
    if (out != nullptr) {
      out->push_back(RecordInfo{cursor, unit.len, unit.epoch});
    }
    last_epoch = unit.epoch;
    cursor = unit.next;
  }
  return cursor;
}

void LogDevice::SeedEpochPast(std::atomic<uint64_t>& epoch, uint64_t max_epoch) {
  // demilint: atomic(recovery is synchronous — before workers spawn or after they join, with
  // no concurrent appenders — so nothing races this seed; the relaxed CAS only has to win the
  // modification order when several partitions recover in turn)
  uint64_t cur = epoch.load(std::memory_order_relaxed);
  while (cur <= max_epoch &&
         !epoch.compare_exchange_weak(  // demilint: atomic(see load above)
             cur, max_epoch + 1, std::memory_order_relaxed)) {
  }
}

Status LogDevice::Recover() {
  head_ = 0;
  std::vector<RecordInfo> records;
  tail_ = ScanPartition(device_, part_, &records);
  // PartitionedLog::RecoverAll seeds the shared epoch across partitions; this covers the
  // standalone whole-device log.
  stats_.last_epoch = records.empty() ? 0 : records.back().epoch;
  SeedEpochPast(*epoch_, stats_.last_epoch);
  // Rebuild the tail-block cache from media.
  std::fill(tail_block_cache_.begin(), tail_block_cache_.end(), 0);
  const uint64_t tail_block = tail_ / block_size_;
  if ((tail_block + 1) * block_size_ <= part_bytes_) {
    device_.RawRead((part_.first_block + tail_block) * block_size_, tail_block_cache_);
    // A torn write may have left a non-durable prefix after the recovered tail; scrub it so the
    // next append's block image contains only acknowledged bytes.
    std::fill(tail_block_cache_.begin() + static_cast<long>(tail_ % block_size_),
              tail_block_cache_.end(), 0);
  }
  return Status::kOk;
}

}  // namespace demi
