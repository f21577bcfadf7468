#include "src/storage/log_device.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/observability/metrics.h"

namespace demi {

namespace {

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* src) {
  uint32_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* src) {
  uint64_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
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
      part_(partition),
      epoch_(epoch != nullptr ? epoch : &local_epoch_) {
  const uint64_t device_blocks = device.config().num_blocks;
  DEMI_CHECK_MSG(part_.first_block <= device_blocks, "log partition starts past the device");
  if (part_.num_blocks == 0) {
    part_.num_blocks = device_blocks - part_.first_block;
  }
  DEMI_CHECK_MSG(part_.first_block + part_.num_blocks <= device_blocks,
                 "log partition exceeds the device");
  part_bytes_ = part_.num_blocks * block_size_;
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

std::vector<uint8_t> LogDevice::MakeHeader(uint32_t payload_len, uint32_t payload_crc) {
  // demilint: atomic(relaxed is sufficient: the single modification order of the shared
  // epoch makes every draw unique across shards, and one shard's draws are monotonic
  // because its own RMWs are ordered. The record carrying this epoch travels through the
  // shard's own partition, never through the counter — see docs/STORAGE.md audit)
  const uint64_t epoch = epoch_->fetch_add(1, std::memory_order_relaxed);
  stats_.last_epoch = epoch;
  std::vector<uint8_t> hdr(kHeaderSize, 0);
  PutU32(hdr.data(), kRecordMagic);
  PutU32(hdr.data() + 4, payload_len);
  PutU64(hdr.data() + 8, epoch);
  PutU32(hdr.data() + 16, payload_crc);
  PutU32(hdr.data() + 20, Crc32(hdr.data(), 20));
  return hdr;
}

Task<Status> LogDevice::SubmitOnceAndWait(bool is_read, uint64_t lba,
                                          std::span<const uint8_t> data,
                                          std::span<const std::span<const uint8_t>> iov,
                                          std::span<uint8_t> out) {
  IoWait wait;
  const uint64_t cookie = next_cookie_++;
  for (;;) {
    Status s;
    if (is_read) {
      s = device_.SubmitRead(lba, out, cookie, part_.id);
    } else if (!iov.empty()) {
      s = device_.SubmitWritev(lba, iov, cookie, part_.id);
    } else {
      s = device_.SubmitWrite(lba, data, cookie, part_.id);
    }
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

Task<Status> LogDevice::SubmitAndWait(bool is_read, uint64_t lba,
                                      std::span<const uint8_t> data,
                                      std::span<const std::span<const uint8_t>> iov,
                                      std::span<uint8_t> out) {
  DurationNs backoff = retry_.initial_backoff;
  for (uint32_t attempt = 0;; attempt++) {
    const Status s = co_await SubmitOnceAndWait(is_read, lba, data, iov, out);
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

Task<Result<uint64_t>> LogDevice::Append(std::span<const uint8_t> payload) {
  co_await AcquireAppendLock();
  // RAII is awkward across co_return paths here; release explicitly on every exit.
  const uint64_t record_offset = tail_;
  const uint64_t record_bytes = AlignUp(kHeaderSize + payload.size(), kAlign);
  const uint64_t new_tail = tail_ + record_bytes;
  if (new_tail > part_bytes_) {
    ReleaseAppendLock();
    co_return Status::kNoBufferSpace;
  }

  // Compose the affected block range: the (possibly partial) tail block comes from the cache so
  // previously appended bytes in the same block are preserved. The cache itself is only updated
  // after the device acknowledges the write — a retried or terminally failed attempt must not
  // leave phantom bytes in the next append's block image.
  const uint64_t first_block = tail_ / block_size_;
  const uint64_t last_block = (new_tail - 1) / block_size_;
  const size_t nblocks = static_cast<size_t>(last_block - first_block + 1);
  std::vector<uint8_t> io(nblocks * block_size_, 0);
  std::memcpy(io.data(), tail_block_cache_.data(), block_size_);

  const size_t in_block_off = static_cast<size_t>(tail_ - first_block * block_size_);
  const std::vector<uint8_t> hdr =
      MakeHeader(static_cast<uint32_t>(payload.size()), Crc32(payload.data(), payload.size()));
  std::memcpy(io.data() + in_block_off, hdr.data(), kHeaderSize);
  std::memcpy(io.data() + in_block_off + kHeaderSize, payload.data(), payload.size());

  const Status s = co_await SubmitAndWait(/*is_read=*/false, DeviceLba(tail_), io, {}, {});
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
  co_await AcquireAppendLock();
  uint64_t payload_len64 = 0;
  uint32_t payload_crc = 0;
  for (const auto& s : slices) {
    payload_len64 += s.size();
    payload_crc = Crc32(s.data(), s.size(), payload_crc);
  }
  if (payload_len64 > UINT32_MAX) {
    ReleaseAppendLock();
    co_return Status::kMessageTooLong;
  }
  const uint32_t payload_len = static_cast<uint32_t>(payload_len64);

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

  const std::vector<uint8_t> hdr = MakeHeader(payload_len, payload_crc);

  std::vector<std::span<const uint8_t>> iov;
  iov.reserve(slices.size() + 3);

  std::vector<uint8_t> lead;
  if (gap1 > 0) {
    lead = tail_block_cache_;
    const size_t in_off = static_cast<size_t>(tail_ % block_size_);
    std::fill(lead.begin() + in_off, lead.end(), 0);
    PutU32(lead.data() + in_off, kPadMagic);
    PutU32(lead.data() + in_off + 4, static_cast<uint32_t>(gap1));
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
    const size_t pad_at = static_cast<size_t>(rec_aligned - kHeaderSize - payload_len);
    PutU32(trailer.data() + pad_at, kPadMagic);
    PutU32(trailer.data() + pad_at + 4, static_cast<uint32_t>(gap2));
  }
  if (!trailer.empty()) {
    iov.emplace_back(trailer.data(), trailer.size());
  }

  const uint64_t first_byte = gap1 > 0 ? tail_ - tail_ % block_size_ : tail_;
  const Status s = co_await SubmitAndWait(/*is_read=*/false, DeviceLba(first_byte), {}, iov, {});
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

Task<Result<LogDevice::ReadResult>> LogDevice::Read(uint64_t cursor) {
  for (;;) {
    if (cursor < head_) {
      co_return Status::kInvalidArgument;
    }
    if (cursor >= tail_) {
      co_return Status::kEndOfFile;
    }
    // Read the block(s) holding the header; it can straddle a block boundary.
    const uint64_t first_block = cursor / block_size_;
    size_t hdr_blocks = (cursor % block_size_) + kHeaderSize > block_size_ ? 2 : 1;
    hdr_blocks = std::min<size_t>(hdr_blocks,
                                  static_cast<size_t>(part_.num_blocks - first_block));
    std::vector<uint8_t> hdr_io(hdr_blocks * block_size_);
    Status s = co_await SubmitAndWait(/*is_read=*/true, part_.first_block + first_block, {}, {},
                                       hdr_io);
    if (s != Status::kOk) {
      co_return s;
    }
    const size_t in_off = static_cast<size_t>(cursor - first_block * block_size_);
    const uint32_t magic = GetU32(hdr_io.data() + in_off);
    if (magic == kPadMagic) {
      const uint32_t skip = GetU32(hdr_io.data() + in_off + 4);
      if (skip < kPadHeaderSize || skip % kAlign != 0 || cursor + skip > tail_) {
        co_return Status::kProtocolError;
      }
      cursor += skip;
      continue;  // alignment filler between records
    }
    if (magic != kRecordMagic || hdr_io.size() - in_off < kHeaderSize) {
      co_return Status::kProtocolError;
    }
    const uint32_t len = GetU32(hdr_io.data() + in_off + 4);
    const uint32_t stored_hdr_crc = GetU32(hdr_io.data() + in_off + 20);
    if (Crc32(hdr_io.data() + in_off, 20) != stored_hdr_crc) {
      co_return Status::kProtocolError;
    }
    const uint64_t record_bytes = AlignUp(kHeaderSize + len, kAlign);
    if (cursor + record_bytes > tail_) {
      co_return Status::kProtocolError;
    }

    ReadResult result;
    result.payload.resize(len);
    result.next_cursor = cursor + record_bytes;
    const uint32_t stored_payload_crc = GetU32(hdr_io.data() + in_off + 16);

    const uint64_t payload_start = cursor + kHeaderSize;
    const uint64_t payload_end = payload_start + len;
    const uint64_t span_first = payload_start / block_size_;
    const uint64_t span_last = len == 0 ? span_first : (payload_end - 1) / block_size_;
    if (span_last < first_block + hdr_blocks) {
      // Entire payload was already covered by the header read.
      std::memcpy(result.payload.data(), hdr_io.data() + in_off + kHeaderSize, len);
    } else {
      std::vector<uint8_t> io((span_last - span_first + 1) * block_size_);
      s = co_await SubmitAndWait(/*is_read=*/true, part_.first_block + span_first, {}, {}, io);
      if (s != Status::kOk) {
        co_return s;
      }
      std::memcpy(result.payload.data(), io.data() + (payload_start - span_first * block_size_),
                  len);
    }
    if (Crc32(result.payload.data(), result.payload.size()) != stored_payload_crc) {
      co_return Status::kProtocolError;
    }
    co_return result;
  }
}

Task<Result<LogDevice::ZcReadResult>> LogDevice::ReadZc(uint64_t cursor, PoolAllocator& alloc) {
  for (;;) {
    if (cursor < head_) {
      co_return Status::kInvalidArgument;
    }
    if (cursor >= tail_) {
      co_return Status::kEndOfFile;
    }
    const uint64_t first_block = cursor / block_size_;
    size_t hdr_blocks = (cursor % block_size_) + kHeaderSize > block_size_ ? 2 : 1;
    hdr_blocks = std::min<size_t>(hdr_blocks,
                                  static_cast<size_t>(part_.num_blocks - first_block));
    std::vector<uint8_t> hdr_io(hdr_blocks * block_size_);
    Status s = co_await SubmitAndWait(/*is_read=*/true, part_.first_block + first_block, {}, {},
                                       hdr_io);
    if (s != Status::kOk) {
      co_return s;
    }
    const size_t in_off = static_cast<size_t>(cursor - first_block * block_size_);
    const uint32_t magic = GetU32(hdr_io.data() + in_off);
    if (magic == kPadMagic) {
      const uint32_t skip = GetU32(hdr_io.data() + in_off + 4);
      if (skip < kPadHeaderSize || skip % kAlign != 0 || cursor + skip > tail_) {
        co_return Status::kProtocolError;
      }
      cursor += skip;
      continue;
    }
    if (magic != kRecordMagic || hdr_io.size() - in_off < kHeaderSize) {
      co_return Status::kProtocolError;
    }
    const uint32_t len = GetU32(hdr_io.data() + in_off + 4);
    const uint32_t stored_payload_crc = GetU32(hdr_io.data() + in_off + 16);
    const uint32_t stored_hdr_crc = GetU32(hdr_io.data() + in_off + 20);
    if (Crc32(hdr_io.data() + in_off, 20) != stored_hdr_crc) {
      co_return Status::kProtocolError;
    }
    const uint64_t record_bytes = AlignUp(kHeaderSize + len, kAlign);
    if (cursor + record_bytes > tail_) {
      co_return Status::kProtocolError;
    }

    // One pool allocation covers every block the payload touches; the device DMAs into it and
    // the returned view slices the payload out of it — no host-side payload copy.
    const uint64_t payload_start = cursor + kHeaderSize;
    const uint64_t span_first = payload_start / block_size_;
    const uint64_t span_last =
        len == 0 ? span_first : (payload_start + len - 1) / block_size_;
    const size_t span_bytes = static_cast<size_t>((span_last - span_first + 1) * block_size_);
    Buffer buf = Buffer::TryAllocate(alloc, span_bytes);
    if (!buf.valid()) {
      co_return Status::kNoMemory;
    }
    s = co_await SubmitAndWait(/*is_read=*/true, part_.first_block + span_first, {}, {},
                               {buf.mutable_data(), span_bytes});
    if (s != Status::kOk) {
      co_return s;
    }
    const size_t view_off = static_cast<size_t>(payload_start - span_first * block_size_);
    if (Crc32(buf.data() + view_off, len) != stored_payload_crc) {
      co_return Status::kProtocolError;
    }
    ZcReadResult result;
    result.payload = buf.Slice(view_off, len);
    result.next_cursor = cursor + record_bytes;
    co_return result;
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

void LogDevice::PollDevice() {
  SimBlockDevice::Completion comps[16];
  for (;;) {
    const size_t n = device_.PollCompletions(comps, part_.id);
    if (n == 0) {
      return;
    }
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
  }
}

uint64_t LogDevice::ScanPartition(const SimBlockDevice& device, const LogPartition& partition,
                                  std::vector<RecordInfo>* out) {
  const size_t block_size = device.config().block_size;
  LogPartition part = partition;
  if (part.num_blocks == 0) {
    part.num_blocks = device.config().num_blocks - part.first_block;
  }
  const uint64_t base = part.first_block * block_size;
  const uint64_t cap = part.num_blocks * block_size;
  uint64_t cursor = 0;
  uint64_t last_epoch = 0;
  std::vector<uint8_t> hdr(kHeaderSize);
  std::vector<uint8_t> payload;
  while (cursor + kPadHeaderSize <= cap) {
    const size_t avail = static_cast<size_t>(std::min<uint64_t>(kHeaderSize, cap - cursor));
    device.RawRead(base + cursor, {hdr.data(), avail});
    const uint32_t magic = GetU32(hdr.data());
    if (magic == kPadMagic) {
      const uint32_t skip = GetU32(hdr.data() + 4);
      if (skip < kPadHeaderSize || skip % kAlign != 0 || cursor + skip > cap) {
        break;
      }
      cursor += skip;
      continue;
    }
    if (magic != kRecordMagic || avail < kHeaderSize) {
      break;
    }
    if (Crc32(hdr.data(), 20) != GetU32(hdr.data() + 20)) {
      break;  // torn header
    }
    const uint32_t len = GetU32(hdr.data() + 4);
    const uint64_t epoch = GetU64(hdr.data() + 8);
    const uint64_t record_bytes = AlignUp(kHeaderSize + len, kAlign);
    if (cursor + record_bytes > cap || epoch <= last_epoch) {
      break;  // out of bounds, or epoch monotonicity broken (stale/torn data)
    }
    payload.resize(len);
    if (len > 0) {
      device.RawRead(base + cursor + kHeaderSize, payload);
    }
    if (Crc32(payload.data(), payload.size()) != GetU32(hdr.data() + 16)) {
      break;  // torn payload: the record never became durable
    }
    if (out != nullptr) {
      out->push_back(RecordInfo{cursor, len, epoch});
    }
    last_epoch = epoch;
    cursor += record_bytes;
  }
  return cursor;
}

Status LogDevice::Recover() {
  head_ = 0;
  std::vector<RecordInfo> records;
  tail_ = ScanPartition(device_, part_, &records);
  // The shared epoch must move past every recovered record so post-recovery appends keep the
  // per-partition strict ordering. (PartitionedLog::RecoverAll does this across partitions;
  // this covers the standalone whole-device log.)
  uint64_t max_epoch = records.empty() ? 0 : records.back().epoch;
  stats_.last_epoch = max_epoch;
  // demilint: atomic(recovery is synchronous — no concurrent appenders — so the relaxed
  // CAS only has to win the modification order when several partitions recover in turn)
  uint64_t cur = epoch_->load(std::memory_order_relaxed);
  // demilint: atomic(see load above)
  while (cur <= max_epoch &&
         !epoch_->compare_exchange_weak(  // demilint: atomic(see load above)
             cur, max_epoch + 1, std::memory_order_relaxed)) {
  }
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
