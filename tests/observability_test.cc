// Tests for src/observability: metrics registry semantics, histogram percentile math,
// tracer ring wraparound, and the disabled-tracer zero-allocation guarantee.

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/liboses/catnip.h"
#include "src/netsim/sim_network.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"

// Global allocation counter for the zero-allocation test. Counting is relaxed-atomic so the
// override stays safe if gtest ever allocates from another thread.
static std::atomic<uint64_t> g_heap_allocs{0};

// GCC's -Wmismatched-new-delete pairs the malloc inlined from this operator new with the free
// in the matching operator delete and flags it; that pairing is exactly the contract of a
// malloc-backed replacement allocator, so the warning is a false positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace demi {
namespace {

// --- MetricsRegistry ---

TEST(MetricsRegistry, RegisterAndSnapshot) {
  MetricsRegistry reg;
  Counter& c = reg.RegisterCounter("tcp.segments_rx", "segments");
  Gauge& g = reg.RegisterGauge("heap.live_objects", "objects");
  uint64_t sampled = 7;
  reg.RegisterCounter("eth.ipv4_rx", "packets", [&] { return sampled; });

  c.Inc();
  c.Inc(41);
  g.Set(-3);

  EXPECT_TRUE(reg.Has("tcp.segments_rx"));
  EXPECT_FALSE(reg.Has("tcp.segments_tx"));
  EXPECT_EQ(reg.NumMetrics(), 3u);
  EXPECT_EQ(reg.NumComponents(), 3u);

  const auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  // Sorted by (component, name).
  EXPECT_EQ(samples[0].name, "eth.ipv4_rx");
  EXPECT_EQ(samples[1].name, "heap.live_objects");
  EXPECT_EQ(samples[2].name, "tcp.segments_rx");
  EXPECT_EQ(samples[0].value, 7);
  EXPECT_EQ(samples[1].value, -3);
  EXPECT_EQ(samples[2].value, 42);
  EXPECT_EQ(samples[2].type, MetricType::kCounter);
  EXPECT_EQ(samples[2].unit, "segments");

  // The accessor is sampled at snapshot time, not registration time.
  sampled = 100;
  EXPECT_EQ(reg.Snapshot()[0].value, 100);
}

TEST(MetricsRegistry, RegistrationIsIdempotentPerName) {
  MetricsRegistry reg;
  Counter& a = reg.RegisterCounter("core.wait_calls", "calls");
  a.Inc(5);
  Counter& b = reg.RegisterCounter("core.wait_calls", "calls");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.Value(), 5u);
  EXPECT_EQ(reg.NumMetrics(), 1u);
}

// A sampled metric exports the kind it was declared with: a level is a gauge, not a counter.
// The component is the name's dotted prefix, labels included.
TEST(MetricsRegistry, SampledMetricsExportTheirDeclaredKind) {
  MetricsRegistry reg;
  uint64_t live = 3;
  reg.RegisterGauge("tcp.connections", "conns", [&] { return live; });
  reg.RegisterCounter("tenant.op_shed{tenant=2}", "ops", [] { return uint64_t{9}; });

  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find(R"("name":"tcp.connections","component":"tcp","type":"gauge")"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("component":"tenant","type":"counter")"), std::string::npos) << json;

  // ExportText prints one "<name> <type> <value> <unit>" line per metric.
  std::map<std::string, std::string> text_kind;
  std::istringstream text(reg.ExportText());
  for (std::string line; std::getline(text, line);) {
    std::istringstream fields(line);
    std::string name, type;
    fields >> name >> type;
    text_kind[name] = type;
  }
  EXPECT_EQ(text_kind["tcp.connections"], "gauge");
  EXPECT_EQ(text_kind["tenant.op_shed{tenant=2}"], "counter");

  const auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].component, "tcp");
  EXPECT_EQ(samples[0].type, MetricType::kGauge);
  EXPECT_EQ(samples[0].value, 3);
  EXPECT_EQ(samples[1].component, "tenant");
  EXPECT_EQ(samples[1].type, MetricType::kCounter);
  EXPECT_EQ(reg.NumComponents(), 2u);
}

TEST(MetricsRegistry, TextAndJsonExportContainEveryMetric) {
  MetricsRegistry reg;
  reg.RegisterCounter("tcp.retransmits", "segments").Inc(3);
  reg.RegisterGauge("heap.live_objects", "objects").Set(12);
  reg.RegisterHistogram("core.wait_ns", "ns").Record(1000);

  const std::string text = reg.ExportText();
  EXPECT_NE(text.find("tcp.retransmits"), std::string::npos);
  EXPECT_NE(text.find("heap.live_objects"), std::string::npos);
  EXPECT_NE(text.find("core.wait_ns"), std::string::npos);
  EXPECT_NE(text.find("3 instruments"), std::string::npos);

  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tcp.retransmits\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.wait_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  // Crude structural sanity: balanced braces and brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The registry's histogram samples must agree exactly with src/common/histogram.h — the same
// HDR-bucketed math the benchmarks report.
TEST(MetricsRegistry, HistogramPercentilesMatchCommonHistogram) {
  MetricsRegistry reg;
  Histogram& h = reg.RegisterHistogram("core.wait_ns", "ns");
  Histogram reference;
  for (uint64_t v = 1; v <= 10000; v++) {
    h.Record(v);
    reference.Record(v);
  }

  const auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  const auto& s = samples[0];
  EXPECT_EQ(s.type, MetricType::kHistogram);
  EXPECT_EQ(s.count, reference.count());
  EXPECT_DOUBLE_EQ(s.mean, reference.Mean());
  EXPECT_EQ(s.min, reference.min());
  EXPECT_EQ(s.p50, reference.P50());
  EXPECT_EQ(s.p99, reference.P99());
  EXPECT_EQ(s.p999, reference.P999());
  EXPECT_EQ(s.max, reference.max());

  // The buckets hold ~1.6% relative precision, so the quantiles land near the true ranks.
  EXPECT_NEAR(static_cast<double>(s.p50), 5000.0, 5000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(s.p99), 9900.0, 9900.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(s.p999), 9990.0, 9990.0 * 0.02);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 10000u);
}

// --- Tracer ---

TEST(Tracer, RingWrapsAndKeepsNewestInOrder) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(8);
  EXPECT_EQ(tracer.capacity(), 8u);

  for (uint64_t i = 0; i < 20; i++) {
    tracer.Record(TraceEventType::kPacketRx, static_cast<uint32_t>(i), i);
  }

  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);

  const auto events = tracer.Drain();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].arg2, 12 + i);  // oldest survivor first
    if (i > 0) {
      EXPECT_GE(events[i].ts, events[i - 1].ts);
    }
  }
  EXPECT_EQ(tracer.size(), 0u);  // drained
}

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(100);
  EXPECT_EQ(tracer.capacity(), 128u);
  tracer.Enable(1);
  EXPECT_EQ(tracer.capacity(), 8u);  // floor
}

TEST(Tracer, PauseKeepsEventsDisableFreesThem) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(16);
  tracer.Record(TraceEventType::kPacketTx, 6, 64);
  tracer.Pause();
  tracer.Record(TraceEventType::kPacketTx, 6, 64);  // not recorded
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Resume();
  tracer.Record(TraceEventType::kPacketRx, 6, 64);
  EXPECT_EQ(tracer.size(), 2u);

  tracer.Disable();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.capacity(), 0u);
  tracer.Record(TraceEventType::kPacketTx, 6, 64);  // safe no-op
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, ExportsTextAndChromeJson) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(16);
  tracer.Record(TraceEventType::kQTokenIssued, 3, 17);
  tracer.Record(TraceEventType::kRetransmit, 5203, 1000);

  const std::string text = tracer.ExportText();
  EXPECT_NE(text.find("qtoken_issued"), std::string::npos);
  EXPECT_NE(text.find("retransmit"), std::string::npos);

  const std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"retransmit\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The hot paths leave Record() compiled in unconditionally, so a disabled tracer must not
// touch the heap (and an enabled one records into the preallocated ring, also without
// allocating).
TEST(Tracer, RecordNeverAllocates) {
  MonotonicClock clock;
  Tracer tracer(clock);

  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; i++) {
    tracer.Record(TraceEventType::kPacketTx, 6, 64);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before) << "disabled Record allocated";

  tracer.Enable(64);
  before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; i++) {
    tracer.Record(TraceEventType::kPacketTx, 6, 64);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before) << "enabled Record allocated";
}

// --- LibOS wiring ---

// A freshly constructed Catnip registers the full metric surface: the ISSUE floor is >=12
// metrics across >=4 components before any traffic flows.
TEST(LibOSObservability, CatnipRegistersMetricsAcrossComponents) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  Catnip::Config cfg{MacAddr{0xA1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr};
  Catnip os(net, cfg, clock);

  EXPECT_GE(os.metrics().NumMetrics(), 12u);
  EXPECT_GE(os.metrics().NumComponents(), 4u);
  for (const char* name : {"sched.polls", "heap.live_objects", "core.wait_calls",
                           "eth.ipv4_rx", "udp.rx_datagrams", "tcp.retransmits"}) {
    EXPECT_TRUE(os.metrics().Has(name)) << name;
  }
}

TEST(LibOSObservability, SchedulerTraceFlowsThroughLibOSTracer) {
  VirtualClock clock;
  SimNetwork net(LinkConfig{}, 1);
  Catnip::Config cfg{MacAddr{0xB2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr};
  Catnip os(net, cfg, clock);

  os.tracer().Enable(256);
  // A timer 1 ms out sits on the wheel's second level; the poll that nears its deadline
  // cascades it down a level -> a timerwheel_cascade event.
  os.scheduler().ArmTimer(kMillisecond, [](void*, uint64_t) {}, nullptr, 0);
  clock.AdvanceTo(kMillisecond - 10 * kMicrosecond);
  os.PollOnce();
  EXPECT_GT(os.tracer().size(), 0u);
  const std::string text = os.tracer().ExportText();
  EXPECT_NE(text.find("timerwheel_cascade"), std::string::npos);
}

}  // namespace
}  // namespace demi
