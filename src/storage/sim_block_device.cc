#include "src/storage/sim_block_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/faults/fault_injector.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"

namespace demi {

namespace {

// The OS hands out an anonymous mapping's pages zero-filled on first touch, so the media needs
// no fill at construction and an unwritten block costs no memory.
uint8_t* MapMedia(size_t bytes) {
  void* media = ::mmap(nullptr, std::max<size_t>(bytes, 1), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  DEMI_CHECK_MSG(media != MAP_FAILED, "SimBlockDevice: cannot map the media");
  return static_cast<uint8_t*>(media);
}

}  // namespace

SimBlockDevice::SimBlockDevice(const Config& config, Clock& clock)
    : config_(config), clock_(clock), media_(MapMedia(CapacityBytes())), ready_(1) {}

SimBlockDevice::~SimBlockDevice() { ::munmap(media_, std::max<size_t>(CapacityBytes(), 1)); }

void SimBlockDevice::ConfigureQueues(size_t num_queues) {
  std::lock_guard<std::mutex> lock(mu_);
  DEMI_CHECK_MSG(pending_.empty(), "ConfigureQueues with I/O in flight");
  for (const auto& q : ready_) {
    DEMI_CHECK_MSG(q.empty(), "ConfigureQueues with undrained completions");
  }
  ready_.assign(std::max<size_t>(num_queues, 1), {});
}

size_t SimBlockDevice::num_queues() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_.size();
}

SimBlockDevice::Stats SimBlockDevice::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SimBlockDevice::SetTracer(Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  tracer_ = tracer;
}

void SimBlockDevice::SetFaultInjector(FaultInjector* faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = faults;
}

void SimBlockDevice::RegisterMetrics(MetricsRegistry& registry) {
  registry.RegisterCounter("blockdev.reads", "ops", [this] { return GetStats().reads; });
  registry.RegisterCounter("blockdev.writes", "ops", [this] { return GetStats().writes; });
  registry.RegisterCounter("blockdev.bytes_read", "bytes",
                           [this] { return GetStats().bytes_read; });
  registry.RegisterCounter("blockdev.bytes_written", "bytes",
                           [this] { return GetStats().bytes_written; });
  registry.RegisterCounter("blockdev.queue_full_rejections", "ops",
                           [this] { return GetStats().queue_full_rejections; });
  registry.RegisterGauge("blockdev.pending", "ops", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  });
  registry.RegisterCounter("blockdev.io_errors", "ops", [this] { return GetStats().io_errors; });
}

TimeNs SimBlockDevice::CompletionTimeFor(size_t bytes, bool is_read) {
  const TimeNs now = clock_.Now();
  const DurationNs transfer = static_cast<DurationNs>(bytes) * kSecond / kBandwidthBytesPerSec;
  // The device processes one transfer at a time (single media channel model).
  device_free_at_ = std::max<TimeNs>(device_free_at_, now) + transfer;
  return device_free_at_ + (is_read ? kReadLatency : kWriteLatency);
}

Status SimBlockDevice::SubmitWrite(uint64_t lba, std::span<const uint8_t> data, uint64_t cookie,
                                   size_t queue) {
  return SubmitWritev(lba, {&data, 1}, cookie, queue);
}

Status SimBlockDevice::SubmitWritev(uint64_t lba, std::span<const std::span<const uint8_t>> iov,
                                    uint64_t cookie, size_t queue) {
  std::lock_guard<std::mutex> lock(mu_);
  DEMI_CHECK(queue < ready_.size());
  if (iov.size() > kMaxWritevSegments) {
    return Status::kMessageTooLong;
  }
  size_t total_bytes = 0;
  for (const auto& seg : iov) {
    total_bytes += seg.size();
  }
  if (total_bytes % config_.block_size != 0 || total_bytes == 0) {
    return Status::kInvalidArgument;
  }
  const uint64_t nblocks = total_bytes / config_.block_size;
  if (lba + nblocks > config_.num_blocks) {
    return Status::kInvalidArgument;
  }
  if (pending_.size() >= kQueueDepth) {
    stats_.queue_full_rejections++;
    return Status::kQueueFull;
  }
  Pending p;
  p.cookie = cookie;
  p.queue = queue;
  // Gather at submit time: this models the controller DMAing each registered slice straight
  // from the heap — the captured image is device state, not a host bounce buffer.
  p.write_data.reserve(total_bytes);
  for (const auto& seg : iov) {
    p.write_data.insert(p.write_data.end(), seg.begin(), seg.end());
  }
  p.complete_at = CompletionTimeFor(total_bytes, /*is_read=*/false);
  p.seq = next_seq_++;
  p.is_read = false;
  p.lba = lba;
  p.media_bytes = total_bytes;
  if (faults_ != nullptr) {
    const auto fault = faults_->DiskOnSubmit(/*is_read=*/false, total_bytes, p.cookie);
    p.complete_at += fault.extra_latency;
    if (fault.io_error) {
      p.status = Status::kIoError;
      // Torn write: a prefix still lands on the media before the "crash"; a plain transient
      // error leaves the media untouched.
      p.media_bytes = fault.torn ? fault.torn_bytes : 0;
    }
  }
  pending_.push(std::move(p));
  // demilint: atomic(under mu_; see inflight_ in the header)
  inflight_.fetch_add(1, std::memory_order_release);
  stats_.writes++;
  stats_.bytes_written += total_bytes;
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kDiskSubmit, 0, total_bytes);
  }
  return Status::kOk;
}

Status SimBlockDevice::SubmitRead(uint64_t lba, std::span<uint8_t> out, uint64_t cookie,
                                  size_t queue) {
  std::lock_guard<std::mutex> lock(mu_);
  DEMI_CHECK(queue < ready_.size());
  if (out.size() % config_.block_size != 0 || out.empty()) {
    return Status::kInvalidArgument;
  }
  const uint64_t nblocks = out.size() / config_.block_size;
  if (lba + nblocks > config_.num_blocks) {
    return Status::kInvalidArgument;
  }
  if (pending_.size() >= kQueueDepth) {
    stats_.queue_full_rejections++;
    return Status::kQueueFull;
  }
  Pending p;
  p.complete_at = CompletionTimeFor(out.size(), /*is_read=*/true);
  p.seq = next_seq_++;
  p.cookie = cookie;
  p.queue = queue;
  p.is_read = true;
  p.lba = lba;
  p.read_target = out;
  if (faults_ != nullptr) {
    const auto fault = faults_->DiskOnSubmit(/*is_read=*/true, out.size(), cookie);
    p.complete_at += fault.extra_latency;
    if (fault.io_error) {
      p.status = Status::kIoError;
    }
  }
  pending_.push(std::move(p));
  // demilint: atomic(under mu_; see inflight_ in the header)
  inflight_.fetch_add(1, std::memory_order_release);
  stats_.reads++;
  stats_.bytes_read += out.size();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kDiskSubmit, 1, out.size());
  }
  return Status::kOk;
}

void SimBlockDevice::RetireDueLocked(TimeNs now) {
  while (!pending_.empty() && pending_.top().complete_at <= now) {
    // priority_queue::top is const; we move out then pop, which is safe because nothing reads
    // the moved-from element before the pop.
    Pending p = std::move(const_cast<Pending&>(pending_.top()));
    pending_.pop();
    const size_t offset = p.lba * config_.block_size;
    if (p.is_read) {
      if (p.status == Status::kOk) {
        std::memcpy(p.read_target.data(), media_ + offset, p.read_target.size());
      }
    } else if (p.media_bytes > 0) {
      std::memcpy(media_ + offset, p.write_data.data(), p.media_bytes);
    }
    if (p.status != Status::kOk) {
      stats_.io_errors++;
    }
    ready_[p.queue < ready_.size() ? p.queue : 0].push_back(Completion{p.cookie, p.status});
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kDiskComplete, p.is_read ? 1 : 0, p.cookie);
    }
  }
}

size_t SimBlockDevice::PollCompletions(std::span<Completion> out, size_t queue, TimeNs now) {
  // demilint: atomic(acquire pairs with the release updates under mu_; see inflight_)
  if (inflight_.load(std::memory_order_acquire) == 0) {
    return 0;  // idle device: nothing submitted is waiting for any poller
  }
  std::lock_guard<std::mutex> lock(mu_);
  DEMI_CHECK(queue < ready_.size());
  RetireDueLocked(now);
  size_t n = 0;
  auto& q = ready_[queue];
  while (n < out.size() && !q.empty()) {
    out[n++] = q.front();
    q.pop_front();
  }
  if (n > 0) {
    // demilint: atomic(under mu_; see inflight_ in the header)
    inflight_.fetch_sub(n, std::memory_order_release);
  }
  return n;
}

TimeNs SimBlockDevice::NextCompletionTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& q : ready_) {
    if (!q.empty()) {
      return clock_.Now();  // already retired, deliverable on the owner's next poll
    }
  }
  return pending_.empty() ? 0 : pending_.top().complete_at;
}

void SimBlockDevice::RawRead(uint64_t byte_offset, std::span<uint8_t> out) const {
  std::lock_guard<std::mutex> lock(mu_);
  DEMI_CHECK(byte_offset + out.size() <= CapacityBytes());
  std::memcpy(out.data(), media_ + byte_offset, out.size());
}

}  // namespace demi
