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

void LogDevice::StartAppend(Io& io, std::span<const std::span<const uint8_t>> slices) {
  QueueAppend(io, slices, /*sg=*/false);
}

void LogDevice::StartAppendSg(Io& io, std::span<const std::span<const uint8_t>> slices) {
  QueueAppend(io, slices, /*sg=*/true);
}

void LogDevice::QueueAppend(Io& io, std::span<const std::span<const uint8_t>> slices, bool sg) {
  DEMI_CHECK(io.state != Io::kBusy);
  io.state = Io::kBusy;
  io.alloc_ = nullptr;
  io.sg_ = sg;
  io.iov_.assign(slices.begin(), slices.end());
  appends_.push_back(&io);
  StartQueuedAppends();
}

void LogDevice::StartQueuedAppends() {
  while (batch_.empty() && !appends_.empty()) {
    if (appends_.front()->sg_) {
      Io& io = *appends_.front();
      appends_.pop_front();
      ComposeSg(io);
    } else {
      ComposeBatch();
    }
  }
}

bool LogDevice::CancelAppend(Io& io) {
  const auto it = std::find(appends_.begin(), appends_.end(), &io);
  if (it == appends_.end()) {
    return false;
  }
  appends_.erase(it);
  Finish(io, Status::kCancelled);
  return true;
}

void LogDevice::ComposeBatch() {
  // The image starts with the (possibly partial) tail block from the cache, so previously
  // appended bytes in the same block are preserved. The cache itself is only updated after the
  // device acknowledges the write — a retried or terminally failed attempt must not leave
  // phantom bytes in the next write's image. Every image byte past the cached prefix is written
  // below: headers, payloads, alignment pads and the zero fill after the last record.
  const size_t in_off = static_cast<size_t>(tail_ % block_size_);
  const uint64_t first_byte = tail_ - in_off;
  if (image_.size() < block_size_) {
    image_.resize(block_size_);
  }
  std::memcpy(image_.data(), tail_block_cache_.data(), in_off);
  uint64_t end = tail_;
  while (!appends_.empty() && !appends_.front()->sg_) {
    Io& io = *appends_.front();
    appends_.pop_front();
    const Result<PayloadSummary> payload = Summarize(io.iov_);
    if (!payload.ok()) {
      Finish(io, payload.error());
      continue;
    }
    const uint64_t rec_aligned = AlignUp(kHeaderSize + payload->len, kAlign);
    if (end + rec_aligned > part_bytes_) {
      Finish(io, Status::kNoBufferSpace);  // a later, shorter record may still fit
      continue;
    }
    io.len_ = payload->len;
    io.offset = end;
    end += rec_aligned;
    const size_t image_bytes = static_cast<size_t>(AlignUp(end - first_byte, block_size_));
    if (image_.size() < image_bytes) {
      image_.resize(image_bytes);
    }
    const auto hdr = MakeHeader(io.len_, payload->crc);
    uint8_t* dst = image_.data() + (io.offset - first_byte);
    std::memcpy(dst, hdr.data(), kHeaderSize);
    dst += kHeaderSize;
    for (const auto& s : io.iov_) {
      if (!s.empty()) {
        std::memcpy(dst, s.data(), s.size());
        dst += s.size();
      }
    }
    std::memset(dst, 0, rec_aligned - kHeaderSize - io.len_);
    batch_.push_back(&io);
  }
  if (batch_.empty()) {
    return;
  }
  const size_t image_bytes = static_cast<size_t>(AlignUp(end - first_byte, block_size_));
  std::memset(image_.data() + (end - first_byte), 0, image_bytes - (end - first_byte));
  batch_tail_ = end;
  Io& lead = *batch_.front();
  lead.iov_.assign(1, std::span<const uint8_t>(image_.data(), image_bytes));
  StartDeviceIo(lead, DeviceLba(first_byte));
}

void LogDevice::ComposeSg(Io& io) {
  const Result<PayloadSummary> payload = Summarize(io.iov_);
  if (!payload.ok()) {
    Finish(io, payload.error());
    return;
  }
  io.len_ = payload->len;
  // An SG record is block-aligned: a leading pad marker fills the current tail block (its image
  // comes from the cache, never from payload), and a trailing pad fills out the last block, so
  // after the append the tail-block cache is simply empty. That is what keeps the SG path
  // zero-copy — no payload byte is ever staged host-side to rebuild a shared block.
  const uint64_t rec_aligned = AlignUp(kHeaderSize + io.len_, kAlign);
  const uint64_t gap1 = (block_size_ - tail_ % block_size_) % block_size_;
  io.offset = tail_ + gap1;
  const uint64_t gap2 = (block_size_ - (io.offset + rec_aligned) % block_size_) % block_size_;
  const uint64_t new_tail = io.offset + rec_aligned + gap2;
  if (new_tail > part_bytes_) {
    Finish(io, Status::kNoBufferSpace);
    return;
  }
  const auto hdr = MakeHeader(io.len_, payload->crc);
  const size_t in_off = static_cast<size_t>(tail_ % block_size_);
  const uint64_t first_byte = tail_ - in_off;

  // The lead block (the cached tail block closed by a pad marker) and the header: one entry.
  io.image_.clear();
  if (gap1 > 0) {
    io.image_.assign(tail_block_cache_.begin(), tail_block_cache_.begin() + in_off);
    io.image_.resize(block_size_, 0);
    PutPad(io.image_.data() + in_off, gap1);
  }
  io.image_.insert(io.image_.end(), hdr.begin(), hdr.end());
  // Flatten only if the slice list exceeds the device SGL limit (counted: this is the one
  // bounce path, and splice batches are sized to never hit it). The trailer follows: zero fill
  // to 8-byte alignment, then a pad marker covering the rest of the block.
  io.trailer_.clear();
  if (io.iov_.size() > SimBlockDevice::kMaxWritevSegments - 2) {
    for (const auto& s : io.iov_) {
      io.trailer_.insert(io.trailer_.end(), s.begin(), s.end());
    }
    stats_.bounce_bytes += io.trailer_.size();
    io.iov_.clear();
  } else {
    std::erase_if(io.iov_, [](std::span<const uint8_t> s) { return s.empty(); });
  }
  const size_t fill_at = io.trailer_.size();
  io.trailer_.resize(fill_at + rec_aligned + gap2 - kHeaderSize - io.len_, 0);
  if (gap2 > 0) {
    PutPad(io.trailer_.data() + fill_at + (rec_aligned - kHeaderSize - io.len_), gap2);
  }
  io.iov_.insert(io.iov_.begin(), std::span<const uint8_t>(io.image_));
  if (!io.trailer_.empty()) {
    io.iov_.emplace_back(io.trailer_);
  }
  batch_.push_back(&io);
  batch_tail_ = new_tail;
  StartDeviceIo(io, DeviceLba(first_byte));
}

void LogDevice::StartRead(Io& io, uint64_t cursor, PoolAllocator& alloc) {
  DEMI_CHECK(io.state != Io::kBusy);
  io.state = Io::kBusy;
  io.alloc_ = &alloc;
  io.cursor_ = cursor;
  ReadUnit(io);
}

void LogDevice::ReadUnit(Io& io) {
  const uint64_t cursor = io.cursor_;
  if (cursor < head_) {
    Finish(io, Status::kInvalidArgument);
    return;
  }
  if (cursor >= tail_) {
    Finish(io, Status::kEndOfFile);
    return;
  }
  // Read the block(s) holding the header (it can straddle a block boundary); a payload that
  // ends inside them is served from this one read.
  io.payload_ = false;
  ReadBlocks(io, cursor, cursor + kHeaderSize);
}

void LogDevice::ReadBlocks(Io& io, uint64_t from, uint64_t to) {
  const uint64_t first_block = from / block_size_;
  const uint64_t end_block = std::min((to - 1) / block_size_ + 1, part_.num_blocks);
  io.buf_ = Buffer::TryAllocate(*io.alloc_, (end_block - first_block) * block_size_);
  if (!io.buf_.valid()) {
    Finish(io, Status::kNoMemory);
    return;
  }
  StartDeviceIo(io, DeviceLba(from));
}

void LogDevice::OnRead(Io& io) {
  const uint64_t payload_start = io.cursor_ + kHeaderSize;
  size_t view_off = static_cast<size_t>(payload_start % block_size_);
  if (!io.payload_) {
    const size_t in_off = static_cast<size_t>(io.cursor_ % block_size_);
    const Unit unit =
        DecodeUnit({io.buf_.data() + in_off, io.buf_.size() - in_off}, io.cursor_, tail_);
    if (unit.kind == Unit::kCorrupt) {
      Finish(io, Status::kProtocolError);
      return;
    }
    if (unit.kind == Unit::kPad) {
      io.cursor_ = unit.next;  // alignment filler between records
      ReadUnit(io);
      return;
    }
    io.len_ = unit.len;
    io.crc_ = unit.payload_crc;
    io.next_ = unit.next;
    view_off = in_off + kHeaderSize;
    if (payload_start + unit.len > io.cursor_ - in_off + io.buf_.size()) {
      // One pool allocation covers every block the payload touches; the device DMAs into it
      // and the returned view slices the payload out of it — no host-side payload copy.
      io.payload_ = true;
      ReadBlocks(io, payload_start, payload_start + unit.len);
      return;
    }
  }
  if (Crc32(io.buf_.data() + view_off, io.len_) != io.crc_) {
    Finish(io, Status::kProtocolError);
    return;
  }
  io.record = ReadResult{io.buf_.Slice(view_off, io.len_), io.next_};
  Finish(io, Status::kOk);
}

void LogDevice::StartDeviceIo(Io& io, uint64_t lba) {
  io.lba_ = lba;
  io.attempt_ = 0;
  Submit(io);
}

void LogDevice::Submit(Io& io) {
  const uint64_t cookie = next_cookie_++;
  const Status s =
      io.alloc_ != nullptr
          ? device_.SubmitRead(io.lba_, {io.buf_.mutable_data(), io.buf_.size()}, cookie, part_.id)
          : device_.SubmitWritev(io.lba_, io.iov_, cookie, part_.id);
  if (s == Status::kOk) {
    waiting_[cookie] = &io;
  } else if (s == Status::kQueueFull) {
    refused_.push_back(&io);  // the device queue drains as completions are polled
  } else {
    EndDeviceIo(io, s);  // a non-retryable submission error
  }
}

void LogDevice::OnDeviceComplete(Io& io, Status status, TimeNs now) {
  if (status == Status::kIoError) {
    if (io.attempt_ >= retry_.max_retries) {
      stats_.io_terminal_errors++;  // budget spent: the terminal error propagates to the Io
    } else {
      // Back off on the wheel, doubling per failed attempt, then resubmit the same I/O.
      stats_.io_retries++;
      const DurationNs backoff = std::min<DurationNs>(
          retry_.initial_backoff << std::min<uint32_t>(io.attempt_++, 20), kMaxRetryBackoff);
      const auto resubmit = [](void* log, uint64_t arg) {
        static_cast<LogDevice*>(log)->Submit(*reinterpret_cast<Io*>(static_cast<uintptr_t>(arg)));
      };
      scheduler_.ArmTimer(now + backoff, resubmit, this, reinterpret_cast<uintptr_t>(&io));
      return;
    }
  }
  if (status != Status::kOk || io.alloc_ == nullptr) {
    if (status == Status::kOk) {
      // Acknowledged: commit the new tail block to the cache and advance the tail. A batch
      // image's last block is the new partial block; an SG record ends block-aligned, so its
      // tail block is fresh.
      if (io.sg_) {
        stats_.sg_appends++;
        stats_.pad_bytes += (batch_tail_ - tail_) - (kHeaderSize + io.len_);
        std::fill(tail_block_cache_.begin(), tail_block_cache_.end(), 0);
      } else {
        const std::span<const uint8_t> image = io.iov_.front();
        std::memcpy(tail_block_cache_.data(), image.data() + image.size() - block_size_,
                    block_size_);
      }
      tail_ = batch_tail_;
    }
    EndDeviceIo(io, status);
  } else {
    OnRead(io);
  }
}

void LogDevice::EndDeviceIo(Io& io, Status status) {
  if (io.alloc_ != nullptr) {
    Finish(io, status);
    return;
  }
  for (Io* append : batch_) {
    Finish(*append, status);
  }
  batch_.clear();
}

void LogDevice::Finish(Io& io, Status status) {
  io.status = status;
  io.state = Io::kDone;
  io.buf_ = Buffer();  // a read's record, if any, holds its own view
  io.done.Notify();
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
  size_t n = 0;
  do {  // only a full batch may have left more
    n = device_.PollCompletions(comps, part_.id, now);
    for (size_t i = 0; i < n; i++) {
      auto it = waiting_.find(comps[i].cookie);
      if (it != waiting_.end()) {
        Io& io = *it->second;
        waiting_.erase(it);
        OnDeviceComplete(io, comps[i].status, now);
      }
    }
  } while (n == std::size(comps));
  if (!refused_.empty()) {
    std::vector<Io*> refused;
    refused.swap(refused_);
    for (Io* io : refused) {
      Submit(*io);
    }
  }
  StartQueuedAppends();
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
