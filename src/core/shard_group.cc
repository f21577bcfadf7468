#include "src/core/shard_group.h"

#include <algorithm>
#include <sstream>

#include "src/common/affinity.h"
#include "src/common/logging.h"

namespace demi {

ShardGroup::ShardGroup(SimNetwork& network, Clock& clock, const Options& options)
    : network_(network),
      clock_(clock),
      options_(options),
      nic_(network, options.base.mac, clock, std::max<size_t>(options.num_workers, 1)) {
  if (options_.base.disk != nullptr && num_workers() > 1) {
    // Partition the shared log device: each shard gets one contiguous block range and one
    // device completion queue; a shared epoch orders records across partitions so recovery
    // stitches them back into one history (docs/STORAGE.md).
    plog_ = std::make_unique<PartitionedLog>(*options_.base.disk, num_workers());
    plog_->RecoverAll();
  }
  shards_.resize(num_workers());
}

ShardGroup::~ShardGroup() {
  RequestStop();
  Join();
}

// Runs on the spawning thread: shard-local state (per-worker tables, stacks, pools) must
// not be touched here while workers are live — demilint enforces the region.
// demilint: control-plane
void ShardGroup::Start(WorkerFn fn) {
  DEMI_CHECK_MSG(threads_.empty(), "ShardGroup::Start called twice");
  fn_ = std::move(fn);
  threads_.reserve(num_workers());
  for (size_t i = 0; i < num_workers(); i++) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
  // Wait until every shard is constructed (sockets can be created, ARP is warm) so callers can
  // start clients immediately; worker bodies also only run once all listeners can exist.
  std::unique_lock<std::mutex> lock(init_mu_);
  init_cv_.wait(lock, [this] { return ready_ == num_workers(); });
}
// demilint: end-control-plane

// Runs on the worker's own thread: this is the one context allowed to touch shard
// `shard_id`'s state, and only that shard's slot (demilint flags shards_[anything-else]).
// demilint: worker-context
void ShardGroup::WorkerMain(size_t shard_id) {
  std::unique_ptr<Catnip> os(new Catnip(network_, options_.base, clock_,
                                        Catnip::ShardWiring{&nic_, shard_id, plog_.get()}));
  for (const auto& [ip, mac] : options_.static_arp) {
    os->ethernet().arp().Insert(ip, mac);
  }
  os->metrics().RegisterGauge("shard.id", "index").Set(static_cast<int64_t>(shard_id));
  os->metrics()
      .RegisterGauge("shard.workers", "count")
      .Set(static_cast<int64_t>(num_workers()));
  {
    std::unique_lock<std::mutex> lock(init_mu_);
    shards_[shard_id] = std::move(os);
    ready_++;
    init_cv_.notify_all();
    // All-constructed barrier: no worker serves until every listener can be bound, so RSS
    // never steers a SYN at a shard that does not exist yet.
    init_cv_.wait(lock, [this] { return ready_ == num_workers(); });
  }
  // DemiSan: tag the shard's heap, qtoken table and TCP state with this thread. From here to
  // the matching unbind, any other thread touching them aborts with a two-thread diagnostic.
  // Also records first-touch NUMA placement for the shard's future superblocks.
  shards_[shard_id]->BindShardAffinity(static_cast<int>(shard_id));
  fn_(shard_id, *shards_[shard_id]);
  // Drain before the thread exits: a pop still in flight when RequestStop lands would leak its
  // qtoken slot and — if it completed after the app stopped waiting — its sga buffer. Disposal
  // happens on the owning worker thread while the shard's heap and stacks are fully alive.
  shards_[shard_id]->DrainPendingTokens();
  // Release the affinity tags on the owning thread itself, so post-Join control-plane
  // inspection and teardown (metric export, destructors) stay exempt by construction.
  shards_[shard_id]->UnbindShardAffinity();
}

void ShardGroup::ServeLoop(Catnip& os, const std::function<void()>& pump) {
  // demilint: fastpath
  // demilint: atomic(stop_ is a latch with no payload; relaxed keeps the poll loop free of
  // fences and the one-iteration observation lag is irrelevant to shutdown)
  while (!stop_.load(std::memory_order_relaxed)) {
    os.PollOnce();
    pump();
  }
  // demilint: end-fastpath
}
// demilint: end-worker-context

// Control plane again: Join/metric aggregation run on the spawning thread and only read
// shard state once workers have quiesced (the thread join is the synchronization edge).
// demilint: control-plane
void ShardGroup::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

std::string ShardGroup::ExportMetricsText() const {
  // Annotated control-domain exemption (docs/STATIC_ANALYSIS.md): scraping metrics reads
  // shard-owned instruments from the spawning thread. Counters/gauges are relaxed atomics and
  // accessor-sampled stats tolerate staleness, so this cross-domain read is deliberate.
  [[maybe_unused]] AffinityExemptScope metrics_scrape;
  std::ostringstream out;
  for (size_t i = 0; i < shards_.size(); i++) {
    out << "# shard=" << i << "\n";
    if (shards_[i] != nullptr) {
      out << shards_[i]->metrics().ExportText();
    }
  }
  out << "# shard=all (rollup)\n";
  for (const auto& s : AggregateSnapshot()) {
    out << s.name << " " << (s.type == MetricType::kHistogram
                                 ? static_cast<int64_t>(s.count)
                                 : s.value)
        << "\n";
  }
  return out.str();
}

std::vector<MetricsRegistry::Sample> ShardGroup::AggregateSnapshot() const {
  // Same control-domain exemption as ExportMetricsText: telemetry reads only.
  [[maybe_unused]] AffinityExemptScope metrics_scrape;
  std::vector<MetricsRegistry::Sample> rollup;
  auto find = [&rollup](const std::string& name) -> MetricsRegistry::Sample* {
    for (auto& s : rollup) {
      if (s.name == name) {
        return &s;
      }
    }
    return nullptr;
  };
  for (size_t i = 0; i < shards_.size(); i++) {
    if (shards_[i] == nullptr) {
      continue;
    }
    for (const MetricsRegistry::Sample& s : shards_[i]->metrics().Snapshot()) {
      if (s.name == "shard.id" || s.name == "nic.queue_id" || s.name == "log.partition_id") {
        continue;  // per-shard identity, meaningless summed
      }
      if (s.component == "net" && i != 0) {
        continue;  // fabric-global counter, identical in every shard's view: count it once
      }
      if (plog_ != nullptr && s.component == "blockdev" && i != 0) {
        continue;  // the shared device's counters are identical in every shard: count once
      }
      MetricsRegistry::Sample* agg = find(s.name);
      if (agg == nullptr) {
        rollup.push_back(s);
        continue;
      }
      if (s.type == MetricType::kHistogram) {
        // Sum counts; keep the quantile fields of the shard that saw the most samples.
        const uint64_t combined = agg->count + s.count;
        if (s.count > agg->count) {
          MetricsRegistry::Sample dens = s;
          dens.count = combined;
          *agg = dens;
        } else {
          agg->count = combined;
        }
      } else if (s.name == "shard.workers") {
        agg->value = s.value;  // identical everywhere; summing would read as workers^2
      } else {
        agg->value += s.value;
      }
    }
  }
  std::sort(rollup.begin(), rollup.end(),
            [](const MetricsRegistry::Sample& a, const MetricsRegistry::Sample& b) {
              return a.component != b.component ? a.component < b.component : a.name < b.name;
            });
  return rollup;
}
// demilint: end-control-plane

}  // namespace demi
