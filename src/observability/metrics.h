// MetricsRegistry: the uniform observability surface over every datapath component.
//
// The paper's evaluation (§7) lives and dies on nanosecond-granularity datapath counters —
// wait latency, scheduler poll behaviour, retransmits. Components keep their existing plain
// `Stats` structs on the hot path (a plain increment, zero new cost) and *register* an accessor
// for each field here, sampled only at snapshot time; metrics that no component owned before
// (wait latency histograms, registry-owned counters) are allocated by the registry itself.
// Counters and gauges are lock-free (relaxed atomics) so a snapshot taken from another thread
// never blocks the datapath.
//
// A metric is declared by one call carrying its name, kind, unit and accessor. Names are dotted
// `component.metric` strings and the component is the part before the first dot. What each
// metric means lives only in docs/OBSERVABILITY.md, whose table demilint checks against these
// calls. Snapshots export as aligned text or JSON.

#ifndef SRC_OBSERVABILITY_METRICS_H_
#define SRC_OBSERVABILITY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"

namespace demi {

// A value that can go down is a gauge; a counter only ever grows.
enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

// Monotonically increasing, lock-free.
class Counter {
 public:
  // demilint: atomic(pure statistic: no other memory is published through a counter, so
  // relaxed RMWs lose nothing — fetch_add is still atomic and the value stays exact; a
  // snapshot may lag concurrent increments, which is fine for telemetry)
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  // demilint: atomic(see Inc — telemetry read, staleness acceptable)
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // demilint: atomic(see Inc — test-only reset, never raced with readers that care)
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // demilint: atomic(single word updated with relaxed RMWs; see Inc for why relaxed holds)
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value, lock-free.
class Gauge {
 public:
  // demilint: atomic(pure statistic, same contract as Counter: no ordering with other
  // state is implied by a gauge update, and RMW atomicity keeps Add/Sub pairs exact)
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  // demilint: atomic(see Set)
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  // demilint: atomic(see Set)
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  // demilint: atomic(see Set — telemetry read, staleness acceptable)
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // demilint: atomic(single word updated with relaxed RMWs; see Set for why relaxed holds)
  std::atomic<int64_t> value_{0};
};

class MetricsRegistry {
 public:
  // Snapshot of one metric. Scalar metrics fill `value`; histograms fill the latency fields.
  struct Sample {
    std::string name;
    std::string component;
    std::string unit;
    MetricType type = MetricType::kCounter;
    int64_t value = 0;
    // Histogram-only.
    uint64_t count = 0;
    double mean = 0.0;
    uint64_t min = 0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
    uint64_t max = 0;
  };

  // Room for a libOS's whole metric set (~130), so registration neither regrows the slot
  // vector and the index nor leaves their freed arrays as holes between a libOS's large
  // buffers; the holes made a libOS rebuilt in the same process slower to set up.
  MetricsRegistry() {
    entries_.reserve(256);
    index_.reserve(256);
  }
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration is idempotent per name: re-registering an existing name of the same type
  // returns the existing instrument (accessors are replaced). References stay valid for the
  // registry's lifetime. Not for the hot path — register at construction time.
  Counter& RegisterCounter(std::string name, std::string unit);
  Gauge& RegisterGauge(std::string name, std::string unit);
  Histogram& RegisterHistogram(std::string name, std::string unit);
  // Samples `fn()` at snapshot time: how component `Stats` structs are exported without
  // touching their increment sites.
  void RegisterCounter(std::string name, std::string unit, std::function<uint64_t()> fn);
  void RegisterGauge(std::string name, std::string unit, std::function<uint64_t()> fn);

  bool Has(std::string_view name) const { return index_.count(std::string(name)) > 0; }
  size_t NumMetrics() const { return entries_.size(); }
  size_t NumComponents() const;

  // Samples every metric, sorted by (component, name).
  std::vector<Sample> Snapshot() const;

  // Aligned human-readable table (one line per metric).
  std::string ExportText() const;
  // {"metrics":[{"name":...,"component":...,"type":...,"unit":...,...}]}
  std::string ExportJson() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    MetricType type;
    // A registry-owned instrument, or `sample` for a sampled counter or gauge.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<uint64_t()> sample;
  };

  Entry& Intern(std::string name, std::string unit, MetricType type);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, size_t> index_;  // name -> entries_ slot
};

}  // namespace demi

#endif  // SRC_OBSERVABILITY_METRICS_H_
