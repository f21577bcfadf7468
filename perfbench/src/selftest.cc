// perfbench_selftest: checks the benchmark's own machinery (not the program under test).
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on the first failed check.

#include <cstdio>
#include <cstring>
#include <vector>

#include "perfbench/src/duet.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    failures++;
  }
}

struct Drawn {
  std::vector<demi::DurationNs> gaps;
  std::vector<uint32_t> keys;
  std::vector<uint32_t> sizes;
  std::vector<bool> sets;
  bool operator==(const Drawn&) const = default;
};

Drawn Draw(uint64_t seed, uint64_t phase) {
  InputStream in(seed, phase);
  Drawn d;
  for (int i = 0; i < 5000; i++) {
    d.gaps.push_back(in.NextGapNs(100e3));
    const KvOp op = in.NextKvOp();
    d.keys.push_back(op.key);
    d.sizes.push_back(op.value_size);
    d.sets.push_back(op.is_set);
  }
  return d;
}

void TestInputsRepeat() {
  Check(Draw(7, 3) == Draw(7, 3), "same seed and phase give the same gap/key/op/size sequence");
  Check(!(Draw(7, 3) == Draw(8, 3)), "another seed gives another sequence");
  Check(!(Draw(7, 3) == Draw(7, 4)), "another phase gives another sequence");

  const Drawn d = Draw(7, 3);
  double mean_gap = 0;
  size_t sets = 0;
  for (size_t i = 0; i < d.gaps.size(); i++) {
    mean_gap += static_cast<double>(d.gaps[i]) / static_cast<double>(d.gaps.size());
    sets += d.sets[i] ? 1 : 0;
  }
  Check(mean_gap > 9000 && mean_gap < 11000, "Poisson gaps at 100k/s average ~10 us");
  Check(sets > 350 && sets < 650, "about 10% of kv ops are SETs");

  Payloads a(7);
  Payloads b(7);
  std::vector<uint8_t> x(4096);
  std::vector<uint8_t> y(4096);
  a.Value(42, 3, x);
  b.Value(42, 3, y);
  Check(x == y, "same seed gives the same value bytes");
  b.Value(42, 4, y);
  Check(x != y, "another SET version of a key gives other bytes (a stale GET is caught)");
  a.Echo(10, {x.data(), kEchoBytes});
  b.Echo(11, {y.data(), kEchoBytes});
  Check(std::memcmp(x.data(), y.data(), kEchoBytes) != 0,
        "echo payloads differ per request (a misrouted reply is caught)");
}

void TestSelfTimes() {
  // root [0,100]: children [10,30] and [20,50] overlap, [60,70], and [90,120] sticks out of
  // the root. [10,30] has a grandchild [15,20].
  const std::vector<Span> spans = {
      {Layer::kRequest, -1, 1, 0, 100},   {Layer::kCorePush, 0, 1, 10, 30},
      {Layer::kCorePop, 0, 1, 20, 50},    {Layer::kCoreTake, 0, 1, 60, 70},
      {Layer::kDmaFree, 0, 1, 90, 120},   {Layer::kDmaMalloc, 1, 1, 15, 20},
  };
  const std::vector<demi::DurationNs> self = SelfTimes(spans);
  // Children cover [10,50] + [60,70] + [90,100] = 60 of the root's 100.
  Check(self[0] == 40, "root self time subtracts the union of overlapping children once");
  Check(self[1] == 15, "a child's self time subtracts its own child");
  Check(self[2] == 30 && self[3] == 10 && self[4] == 30 && self[5] == 5,
        "leaf self time is the span's duration");

  SpanRecorder rec(1);
  rec.BeginRequest(9, 1000);
  rec.Add(Layer::kCorePush, 1010, 1030);
  rec.Add(Layer::kClientPollIdle, 1030, 1090);
  rec.EndRequest(1100, RequestClass::kRead);
  Check(rec.self_ns(Layer::kRequest) == 20 && rec.self_ns(Layer::kCorePush) == 20 &&
            rec.self_ns(Layer::kClientPollIdle) == 60 && rec.request_ns() == 100,
        "recorder folds per-layer self times that sum to the request time");
  Check(rec.ExportChromeJson().find("\"ph\":\"X\"") != std::string::npos,
        "recorder exports Chrome complete events");
}

void TestDeltasExcludeSetup() {
  const WorkloadSpec* spec = FindWorkload("echo-udp");
  Duet duet(*spec, 1, 1);
  PhaseResult warm = duet.ClosedLoop(20 * demi::kMillisecond, 1, nullptr);
  const Counters before = duet.Snapshot();
  PhaseResult phase = duet.ClosedLoop(50 * demi::kMillisecond, 2, nullptr);
  const Counters after = duet.Snapshot();
  const int64_t delta = after.at("udp.tx_datagrams") - before.at("udp.tx_datagrams");
  const int64_t total = after.at("udp.tx_datagrams");
  // Every echo is one datagram each way.
  Check(phase.failed == 0 && warm.failed == 0, "udp echo phases complete without failures");
  Check(delta == 2 * static_cast<int64_t>(phase.latency_ns.size()),
        "registry delta counts exactly the phase's requests");
  Check(total > delta + 2 * static_cast<int64_t>(warm.latency_ns.size()) - 1,
        "set-up and warm-up traffic stays out of the delta");
  Check(duet.LibosTraceRecords() == 0, "libOS tracers stay off");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestInputsRepeat();
  perfbench::TestSelfTimes();
  perfbench::TestDeltasExcludeSetup();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest passed" : "selftest FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
