// ShardGroup: the multi-worker runtime of the paper's Fig. 9 evaluation (§7).
//
// One shared-nothing Catnip instance per worker thread — each with its own Scheduler,
// PoolAllocator, TCP/UDP stacks and qtoken table — all attached to a single multi-queue SimNic
// whose Toeplitz RSS pins every flow to exactly one shard. Nothing on the datapath is shared
// between workers, so each shard keeps the paper's single-threaded run-to-completion TCP stack
// and its determinism; the only cross-core touch points are the fabric's per-queue delivery
// locks (measured by `net.port_lock_contention`).
//
// Listen sharding works like SO_REUSEPORT on kernel stacks: every shard's TcpStack listens on
// the same port, the SYN's RSS hash selects one shard, and that shard owns the connection for
// its whole life — accept, data, and teardown all stay on one core.
//
// Apps go multi-worker by handing Start() a callback that builds their per-shard server state
// and runs ServeLoop(); see StartShardedEchoServer (src/apps/echo.h) for the ~10-line pattern.
//
// Threads busy-poll, so run ShardGroup on a MonotonicClock (a VirtualClock nobody advances
// would spin forever). Metric aggregation (ExportMetricsText / AggregateSnapshot) is valid
// once workers quiesce — after Join().

#ifndef SRC_CORE_SHARD_GROUP_H_
#define SRC_CORE_SHARD_GROUP_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/liboses/catnip.h"
#include "src/storage/partitioned_log.h"

namespace demi {

class ShardGroup {
 public:
  struct Options {
    size_t num_workers = 1;
    // Catnip config shared by all shards; each shard is also wired to the group's NIC queue
    // and (with storage) log partition of its own index. With base.disk set and
    // num_workers > 1, the group partitions the log device: each shard's Cattree engine owns
    // one contiguous block range and one device completion queue, with record epochs drawn
    // from a shared counter so recovery can stitch the partitions back into one ordered
    // history (docs/STORAGE.md).
    Catnip::Config base;
    // Static ARP entries installed on every shard before its worker runs. Required for
    // num_workers > 1: RSS steers ARP (non-IPv4) to queue 0 only, so shards run with a warm
    // cache — exactly the paper's config-file ARP table.
    std::vector<std::pair<Ipv4Addr, MacAddr>> static_arp;
  };

  // The per-worker body: runs on the worker's own thread with that worker's shard. Typically
  // builds app state and calls ServeLoop(os, ...). Runs after every shard is constructed.
  using WorkerFn = std::function<void(size_t shard_id, Catnip& os)>;

  ShardGroup(SimNetwork& network, Clock& clock, const Options& options);
  ~ShardGroup();  // RequestStop() + Join()

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  // Spawns one thread per worker and returns once every shard (listener-ready libOS) exists.
  void Start(WorkerFn fn);

  // Asks worker loops (ServeLoop / stop_flag observers) to exit; returns immediately.
  // demilint: atomic(release so a worker that observes stop=true also observes every write
  // the stopping thread made before requesting the stop — cheap insurance on a cold path;
  // workers poll with relaxed loads, and Join() is the real synchronization point)
  void RequestStop() { stop_.store(true, std::memory_order_release); }
  // Joins every worker thread. Idempotent; shards stay alive for post-join inspection.
  void Join();

  // The standard worker body tail: busy-polls the shard's scheduler and runs the app's pump
  // until RequestStop(). This is the shard datapath loop (demilint fastpath).
  void ServeLoop(Catnip& os, const std::function<void()>& pump);

  size_t num_workers() const { return nic_.num_queues(); }  // one RSS queue pair each
  std::atomic<bool>& stop_flag() { return stop_; }
  SimNic& nic() { return nic_; }
  // Valid between Start() and destruction. Shard i is owned by worker thread i; cross-thread
  // access is only safe before Start or after Join.
  Catnip& shard(size_t i) { return *shards_[i]; }
  // Non-null when storage runs partitioned (base.disk set with num_workers > 1). Exposed so
  // tests can inspect partition geometry and perform stitched recovery checks.
  PartitionedLog* partitioned_log() { return plog_.get(); }

  // --- Quiesced metric views (call after Join) ---

  // Every shard's registry rendered with a `shard=<i>` label banner, followed by the rollup.
  std::string ExportMetricsText() const;
  // Aggregated rollup: per-name sum across shards (histograms: counts summed, quantiles taken
  // from the densest shard). Per-shard identity gauges (shard.id, nic.queue_id) are skipped;
  // fabric-global metrics (net.*) are taken from shard 0 instead of multiply-counted.
  std::vector<MetricsRegistry::Sample> AggregateSnapshot() const;

 private:
  void WorkerMain(size_t shard_id);

  SimNetwork& network_;
  Clock& clock_;
  Options options_;
  SimNic nic_;  // the one multi-queue device all shards share
  // Partition geometry + shared allocation epoch for the one log device all shards share;
  // null single-worker (the shard owns the whole device, the classic layout).
  std::unique_ptr<PartitionedLog> plog_;
  // demilint: atomic(one-way stop latch: set once by the control plane, polled relaxed by
  // every worker's ServeLoop; carries no payload — thread join is the real sync point)
  std::atomic<bool> stop_{false};
  WorkerFn fn_;
  std::vector<std::unique_ptr<Catnip>> shards_;  // slot i published by worker i
  std::vector<std::thread> threads_;
  std::mutex init_mu_;
  std::condition_variable init_cv_;
  size_t ready_ = 0;  // shards constructed; guarded by init_mu_
};

}  // namespace demi

#endif  // SRC_CORE_SHARD_GROUP_H_
