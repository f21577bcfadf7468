// SimBlockDevice: the simulated NVMe/SPDK substrate.
//
// Substitution for an Intel Optane SSD driven through SPDK (DESIGN.md §2): an asynchronous,
// block-addressed submit/poll interface with a fixed latency model tuned to the paper's
// 3D-XPoint device (~10 µs writes). Cattree drives this exactly as it would drive SPDK:
// submit, then poll completions from the fast path.
//
// Multi-queue: like an NVMe controller, the device exposes N completion queues
// (ConfigureQueues). Each submitter tags its ops with a queue id and polls only that queue, so
// per-shard LogDevice partitions (docs/STORAGE.md) never observe each other's completions. All
// entry points take an internal mutex — the device is the one piece of storage state ShardGroup
// workers share, exactly as the NIC's fabric locks are on the network side.

#ifndef SRC_STORAGE_SIM_BLOCK_DEVICE_H_
#define SRC_STORAGE_SIM_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <queue>
#include <span>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace demi {

class FaultInjector;
class MetricsRegistry;
class Tracer;

class SimBlockDevice {
 public:
  struct Config {
    size_t block_size = 4096;
    size_t num_blocks = 16384;  // 64 MB
  };

  // Latency model: per-op latency after a single-channel transfer at kBandwidthBytesPerSec.
  static constexpr DurationNs kReadLatency = 7 * kMicrosecond;
  static constexpr DurationNs kWriteLatency = 10 * kMicrosecond;
  static constexpr uint64_t kBandwidthBytesPerSec = 2'000'000'000ULL;  // 2 GB/s
  // Ops in flight across all queues before submits return kQueueFull.
  static constexpr size_t kQueueDepth = 64;

  struct Completion {
    uint64_t cookie;
    Status status;
  };

  // Largest scatter-gather list SubmitWritev accepts (models the controller's SGL descriptor
  // limit; callers with more slices must coalesce — LogDevice counts those as bounce bytes).
  static constexpr size_t kMaxWritevSegments = 128;

  // The media is an anonymous zero-filled mapping: a block costs memory only once it is
  // written, and an unwritten block reads as zeros.
  SimBlockDevice(const Config& config, Clock& clock);
  ~SimBlockDevice();
  SimBlockDevice(const SimBlockDevice&) = delete;
  SimBlockDevice& operator=(const SimBlockDevice&) = delete;

  // Sizes the completion-queue set (NVMe queue pairs). Must be called before any I/O is
  // submitted on queues >= 1; existing completions must be drained first. Queue 0 always
  // exists.
  void ConfigureQueues(size_t num_queues);
  size_t num_queues() const;

  // Submits an asynchronous write of `data` (must be a whole number of blocks) at `lba`.
  // The data is captured at submit time (models DMA from the submission ring).
  [[nodiscard]] Status SubmitWrite(uint64_t lba, std::span<const uint8_t> data, uint64_t cookie,
                                   size_t queue = 0);

  // Scatter-gather write: the device gathers `iov` at submit time (controller-side DMA from
  // the registered slices — the host never concatenates them). Total bytes must be a whole
  // number of blocks.
  [[nodiscard]] Status SubmitWritev(uint64_t lba, std::span<const std::span<const uint8_t>> iov,
                                    uint64_t cookie, size_t queue = 0);

  // Submits an asynchronous read of `out.size()` bytes (whole blocks) at `lba`; `out` must stay
  // valid until the completion is polled. Data lands in `out` when the completion is delivered.
  [[nodiscard]] Status SubmitRead(uint64_t lba, std::span<uint8_t> out, uint64_t cookie,
                                  size_t queue = 0);

  // Polls for operations on `queue` finished by `now` (the caller's poll time); returns the
  // number written to `out`. Due completions for other queues are moved to their ready lists
  // (any poller advances the device; only the owning queue sees the cookie). With no op in
  // flight on any queue it returns 0 without taking the device lock.
  size_t PollCompletions(std::span<Completion> out, size_t queue, TimeNs now);

  // Earliest pending completion time (0 if idle) for stepped VirtualClock tests. Spans every
  // queue: a conservative wake-up for any poller.
  TimeNs NextCompletionTime() const;

  const Config& config() const { return config_; }
  size_t CapacityBytes() const { return config_.block_size * config_.num_blocks; }

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t queue_full_rejections = 0;
    uint64_t io_errors = 0;  // completions delivered with a non-kOk status (injected faults)
  };
  Stats GetStats() const;

  // Registers the blockdev.* counters as callback gauges (docs/OBSERVABILITY.md). Called by
  // whichever libOS is driving this device; the registry must not outlive the device. Safe to
  // call from several shard registries — callbacks read under the device mutex and ShardGroup's
  // rollup counts blockdev.* once.
  void RegisterMetrics(MetricsRegistry& registry);
  // Attaches a tracer for kDiskSubmit/kDiskComplete events. The tracer's ring is not
  // thread-safe, so multi-worker setups (a shared partitioned device) must leave this unset.
  void SetTracer(Tracer* tracer);

  // Optional chaos hook (null by default): consulted per submitted op for injected transient
  // I/O errors, latency spikes and crash-point torn writes. See src/faults/fault_injector.h.
  void SetFaultInjector(FaultInjector* faults);

  // Direct synchronous access for tests/recovery tooling (not a datapath API).
  void RawRead(uint64_t byte_offset, std::span<uint8_t> out) const;

 private:
  struct Pending {
    TimeNs complete_at;
    uint64_t seq;
    uint64_t cookie;
    size_t queue;
    bool is_read;
    uint64_t lba;
    Status status = Status::kOk;      // injected fault outcome, decided at submit time
    size_t media_bytes = 0;           // writes: how much of write_data reaches the media
    std::vector<uint8_t> write_data;  // writes: captured data
    std::span<uint8_t> read_target;   // reads: caller's destination
    bool operator>(const Pending& o) const {
      return complete_at != o.complete_at ? complete_at > o.complete_at : seq > o.seq;
    }
  };

  TimeNs CompletionTimeFor(size_t bytes, bool is_read);
  // Moves every due pending op to its queue's ready list (applies media effects).
  void RetireDueLocked(TimeNs now);

  Config config_;
  Clock& clock_;
  uint8_t* media_;  // CapacityBytes() of mapped media, zero until written
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>> pending_;
  std::vector<std::deque<Completion>> ready_;  // per completion queue
  uint64_t next_seq_ = 0;
  // demilint: atomic(ops submitted and not yet handed to a poller, on every queue; changed
  // only under mu_ (release) and loaded with acquire outside it by PollCompletions to skip
  // the lock on an idle device. A stale zero only defers a completion to the next poll)
  std::atomic<size_t> inflight_{0};
  TimeNs device_free_at_ = 0;
  Stats stats_;
  Tracer* tracer_ = nullptr;
  FaultInjector* faults_ = nullptr;
  mutable std::mutex mu_;
};

}  // namespace demi

#endif  // SRC_STORAGE_SIM_BLOCK_DEVICE_H_
