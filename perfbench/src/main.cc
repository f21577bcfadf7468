// perfbench: the repository benchmark. See perfbench/README.md.
//
//   perfbench --workload <echo-tcp|echo-udp|kv-aof> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with no tracing anywhere. --trace 1 is the separate
// traced run that gives the per-layer metrics. Either way the last line of stdout is one JSON
// object: {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/duet.h"

namespace perfbench {
namespace {

using demi::DurationNs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// Nearest-rank quantile of `v` (sorted in place), in microseconds.
double QuantileUs(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

DurationNs Share(double seconds, double share) {
  return static_cast<DurationNs>(seconds * share * 1e9);
}

demi::DurationNs ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<demi::DurationNs>(ts.tv_sec) * demi::kSecond + ts.tv_nsec;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
    std::printf("%-34s %16.4f %s\n", name, value, unit);
  }
  // Prints a figure that is not one of the run's JSON metrics.
  static void Note(const char* name, double value, const char* unit) {
    std::printf("%-34s %16.4f %s\n", name, value, unit);
  }
  void Count(const PhaseResult& r) {
    attempted_ += r.attempted;
    failed_ += r.failed;
  }
  void CountSetup(uint64_t failures) { failed_ += failures; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void PrintJson(bool correct) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    char buf[256];
    std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                  ", \"metrics\": {", attempted_, failed_);
    out += buf;
    for (size_t i = 0; i < metrics_.size(); i++) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name, metrics_[i].value, metrics_[i].unit);
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The measured phases run as kSlices short slices, interleaved, so each phase samples the whole
// run and host noise that the clock does not remove (clock.h) spoils a few slices, not a metric:
// a latency metric is the median over slices of each slice's quantile. In the closed loop only
// the faster half of the slices counts, because there the noise left is the host's slow spells,
// which only ever slow a slice down.
constexpr int kSlices = 16;

// The traced run keeps the spans of this many requests for its Chrome trace.
constexpr size_t kKeepRequests = 500;

using Field = std::vector<uint64_t> PhaseResult::*;

double MedianOf(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double SliceMedianUs(const std::vector<PhaseResult>& slices, Field field, double q,
                     bool faster_half) {
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < slices.size(); i++) {
    ranked.emplace_back(QuantileUs(slices[i].latency_ns, 0.5), i);
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t keep = faster_half ? (ranked.size() + 1) / 2 : ranked.size();
  std::vector<double> per;
  for (size_t k = 0; k < keep; k++) {
    per.push_back(QuantileUs(slices[ranked[k].second].*field, q));
  }
  return MedianOf(per);
}

std::vector<uint64_t> Pooled(const std::vector<PhaseResult>& slices, Field field) {
  std::vector<uint64_t> pool;
  for (const PhaseResult& r : slices) {
    pool.insert(pool.end(), (r.*field).begin(), (r.*field).end());
  }
  return pool;
}

// total[name] += b[name] - a[name]
void Accumulate(Counters& total, const Counters& a, const Counters& b) {
  for (const auto& [name, value] : b) {
    total[name] += value - (a.count(name) > 0 ? a.at(name) : 0);
  }
}

double Count(const Counters& c, const char* name) {
  return static_cast<double>(c.count(name) > 0 ? c.at(name) : 0);
}

// Phase ids seed each phase's input stream; slice i of a phase uses id + i.
enum Phase : uint64_t {
  kWarmClosed = 1,
  kWarmOpen = 2,
  kUnloaded = 1000,  // the traced unloaded slices draw the same inputs as the untraced ones
  kLoad = 2000,
  kSearch = 3000,
};

// A rate is sustained when three quarters of the trial's ticks keep their p99 within the limit,
// the backlog does not grow and never reaches the cap: a host stall spoils a few ticks, an
// overload nearly all.
bool Sustained(const PhaseResult& r, const WorkloadSpec& spec) {
  size_t good = 0;
  for (const auto& tick : r.tick_ns) {
    good += !tick.empty() && QuantileUs(tick, 0.99) <= spec.p99_limit_us ? 1 : 0;
  }
  return r.failed == 0 && !r.backlog_grew && !r.hit_cap && good * 4 >= kTicks * 3;
}

// One bisection round of the rate search over [lo, hi] (geometric midpoints). Returns the
// highest rate that was sustained, or 0 if none was.
double SearchRound(Duet& duet, const WorkloadSpec& spec, double lo, double hi, int steps,
                   DurationNs trial, uint64_t& phase, Report& report) {
  double best = 0;
  for (int step = 0; step < steps; step++) {
    const double mid = std::sqrt(lo * hi);
    PhaseResult r = duet.OpenLoop(mid * 1e3, trial, phase++);
    report.Count(r);
    const bool ok = Sustained(r, spec);
    std::fprintf(stderr, "  search %.1f kops/s: p99 %.1f us%s%s -> %s\n", mid,
                 QuantileUs(r.latency_ns, 0.99), r.backlog_grew ? ", backlog grew" : "",
                 r.hit_cap ? ", hit the cap" : "", ok ? "pass" : "fail");
    if (ok) {
      best = std::max(best, mid);
    }
    (ok ? lo : hi) = mid;
  }
  return best;
}

// The rate search: a coarse bisection over [R_w, 8 R_w], then fine ones over +-25% around the
// median result so far. Near the limit a trial passes or fails by chance, so the result is the
// median of the rounds' results.
double RateSearch(Duet& duet, const WorkloadSpec& spec, double s, Report& report) {
  constexpr int kRounds = 6;
  const DurationNs trial = Share(s, 0.4 / (6 + 5 * (kRounds - 1)));
  uint64_t phase = kSearch;
  std::vector<double> rounds = {
      SearchRound(duet, spec, spec.rate_kops, spec.rate_kops * 8, 6, trial, phase, report)};
  while (rounds.size() < kRounds) {
    const double center = std::max(MedianOf(rounds), spec.rate_kops);
    rounds.push_back(
        SearchRound(duet, spec, center / 1.25, center * 1.25, 5, trial, phase, report));
  }
  return MedianOf(rounds);
}

// Everything one run measures after set-up and warm-up.
struct Measured {
  std::vector<PhaseResult> unloaded;  // untraced closed-loop slices
  std::vector<PhaseResult> load;      // open-loop slices at R_w
  Counters unloaded_delta;            // registry deltas over the untraced closed-loop slices
  Counters load_delta;                // ... and over the open-loop slices
  double rss_mb = 0;                  // before the rate search, whose overload trials grow queues
  double slo_kops = 0;
};

// With `spans`, a traced closed-loop slice on the same inputs follows every untraced one.
Measured Measure(Duet& duet, const WorkloadSpec& spec, double s, SpanRecorder* spans,
                 Report& report) {
  Measured m;
  for (int i = 0; i < kSlices; i++) {
    Counters before = duet.Snapshot();
    m.unloaded.push_back(duet.ClosedLoop(Share(s, 0.2 / kSlices), kUnloaded + i, nullptr));
    Accumulate(m.unloaded_delta, before, duet.Snapshot());
    report.Count(m.unloaded.back());
    if (spans != nullptr) {
      report.Count(duet.ClosedLoop(Share(s, 0.2 / kSlices), kUnloaded + i, spans));
    }
    before = duet.Snapshot();
    m.load.push_back(duet.OpenLoop(spec.rate_kops * 1e3, Share(s, 0.3 / kSlices), kLoad + i));
    Accumulate(m.load_delta, before, duet.Snapshot());
    report.Count(m.load.back());
  }
  m.rss_mb = PeakRssMb();
  m.slo_kops = RateSearch(duet, spec, s, report);
  return m;
}

void ReportEndToEnd(const Measured& m, double setup_s, Report& report) {
  const Field lat = &PhaseResult::latency_ns;
  report.Add("setup_s", setup_s, "s");
  report.Add("rtt_p50_us", SliceMedianUs(m.unloaded, lat, 0.50, true), "us");
  report.Add("peak_rss_mb", m.rss_mb, "MB");
}

// Reported by both runs: in the end-to-end run as notes, in the traced run as metrics. On a
// shared host their run-to-run spread is too wide for a bound (README.md).
void ReportUnbounded(const Measured& m, const WorkloadSpec& spec, Report& report, bool notes) {
  const Field lat = &PhaseResult::latency_ns;
  const Field get = spec.kv ? &PhaseResult::get_ns : lat;
  const Field set = spec.kv ? &PhaseResult::set_ns : lat;
  auto add = [&](const char* name, double value, const char* unit) {
    notes ? Report::Note(name, value, unit) : report.Add(name, value, unit);
  };
  add("rtt_p99_us", SliceMedianUs(m.unloaded, lat, 0.99, true), "us");
  add("load_p50_us", SliceMedianUs(m.load, lat, 0.50, false), "us");
  add("load_p99_us", SliceMedianUs(m.load, lat, 0.99, false), "us");
  // Single-class workloads (echo) have no GET/SET split: both repeat the load p99.
  add("get_p99_us", SliceMedianUs(m.load, get, 0.99, false), "us");
  add("set_p99_us", SliceMedianUs(m.load, set, 0.99, false), "us");
  add("slo_kops", m.slo_kops, "kops/s");
  add("loadgen.lag_p99_us", QuantileUs(Pooled(m.load, &PhaseResult::lag_ns), 0.99), "us");
  add("host.stall_clipped_ms", static_cast<double>(TheClock().clipped()) / 1e6, "ms");
  add("host.mean_speed", TheClock().mean_speed(), "ratio");
}

void ReportPerLayer(const Measured& m, const SpanRecorder& spans, const WorkloadSpec& spec,
                    Duet& duet, Report& report) {
  const double n = static_cast<double>(spans.requests());
  auto per_req = [&](Layer layer) { return Ratio(static_cast<double>(spans.self_ns(layer)), n); };
  auto per_class = [&](Layer layer, RequestClass cls) {
    return Ratio(static_cast<double>(spans.self_ns(layer, cls)),
                 static_cast<double>(spans.requests(cls)));
  };
  const std::vector<uint64_t> untraced = Pooled(m.unloaded, &PhaseResult::latency_ns);
  const double ops = static_cast<double>(untraced.size());
  const double load_ops = static_cast<double>(Pooled(m.load, &PhaseResult::latency_ns).size());
  auto per_op = [&](const char* name) { return Ratio(Count(m.unloaded_delta, name), ops); };
  double sets = 0;
  for (const PhaseResult& r : m.unloaded) {
    sets += static_cast<double>(r.sets);
  }
  double untraced_sum = 0;
  for (uint64_t ns : untraced) {
    untraced_sum += static_cast<double>(ns);
  }
  uint64_t polls = 0;
  uint64_t busy_polls = 0;
  for (const PhaseResult& r : m.load) {
    polls += r.polls;
    busy_polls += r.busy_polls;
  }
  const double traced_mean = Ratio(static_cast<double>(spans.request_ns()), n);
  const double request_self = per_req(Layer::kRequest);

  report.Add("core.push_ns", per_req(Layer::kCorePush), "ns");
  report.Add("core.pop_ns", per_req(Layer::kCorePop), "ns");
  report.Add("core.take_ns", per_req(Layer::kCoreTake), "ns");
  report.Add("runtime.client_poll_busy_ns", per_req(Layer::kClientPollBusy), "ns");
  report.Add("runtime.server_poll_busy_ns", per_req(Layer::kServerPollBusy), "ns");
  report.Add("runtime.idle_poll_ns",
             per_req(Layer::kClientPollIdle) + per_req(Layer::kServerPollIdle), "ns");
  report.Add("runtime.poll_useful_ratio",
             Ratio(static_cast<double>(busy_polls), static_cast<double>(polls)), "ratio");
  report.Add("apps.server_pump_ns",
             per_req(Layer::kServerPump) + per_req(Layer::kServerPumpServed), "ns");
  report.Add("apps.kv_get_pump_ns",
             spec.kv ? per_class(Layer::kServerPumpServed, RequestClass::kRead) : 0, "ns");
  report.Add("apps.kv_set_pump_ns",
             spec.kv ? per_class(Layer::kServerPumpServed, RequestClass::kWrite) : 0, "ns");
  report.Add("apps.kv_codec_ns", per_req(Layer::kKvCodec), "ns");
  report.Add("memory.dma_malloc_ns", per_req(Layer::kDmaMalloc), "ns");
  report.Add("memory.dma_free_ns", per_req(Layer::kDmaFree), "ns");
  report.Add("request.self_ns", request_self, "ns");
  report.Add("trace.request_ns", traced_mean, "ns");
  report.Add("trace.overhead_ns", traced_mean - Ratio(untraced_sum, ops), "ns");
  report.Add("trace.layer_coverage", Ratio(traced_mean - request_self, traced_mean), "ratio");
  report.Add("sched.fibers_spawned_per_op", per_op("sched.fibers_spawned"), "fibers");
  report.Add("sched.resumptions_per_op", per_op("sched.resumptions"), "resumes");
  report.Add("timerwheel.arms_per_op", per_op("timerwheel.arms"), "timers");
  report.Add("timerwheel.cancels_per_op", per_op("timerwheel.cancels"), "timers");
  report.Add("tcp.segments_per_op", per_op("tcp.segments_tx"), "segments");
  report.Add("tcp.delayed_acks_per_op", per_op("tcp.delayed_acks"), "acks");
  report.Add("tcp.retransmits",
             Count(m.unloaded_delta, "tcp.retransmits") + Count(m.load_delta, "tcp.retransmits"),
             "segments");
  report.Add("eth.frames_per_rx_burst",
             Ratio(Count(m.load_delta, "eth.rx_burst_frames"), Count(m.load_delta, "eth.rx_bursts")),
             "frames");
  report.Add("nic.frames_per_op", Ratio(Count(m.load_delta, "nic.queue_tx_frames"), load_ops),
             "frames");
  report.Add("heap.bytes_reserved", Count(duet.Snapshot(), "heap.bytes_reserved"), "bytes");
  report.Add("heap.deferred_frees_per_op", per_op("heap.deferred_frees"), "objects");
  report.Add("blockdev.writes_per_set", Ratio(Count(m.unloaded_delta, "blockdev.writes"), sets),
             "ops");
  report.Add("blockdev.bytes_written_per_set",
             Ratio(Count(m.unloaded_delta, "blockdev.bytes_written"), sets), "bytes");
  report.Add("log.io_retries",
             Count(m.unloaded_delta, "log.io_retries") + Count(m.load_delta, "log.io_retries"),
             "ops");
  ReportUnbounded(m, spec, report, /*notes=*/false);
}

void WriteTrace(const SpanRecorder& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = spans.ExportChromeJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "trace: %" PRIu64 " requests traced; spans of the first %zu -> %s\n",
               spans.requests(), kKeepRequests, path.c_str());
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  TheClock().Calibrate();

  // Set-up, repeated; each but the last is torn down again.
  std::vector<double> setups;
  std::unique_ptr<Duet> duet;
  const int repeats = args.trace == 0 ? spec->setup_repeats : 1;
  for (int i = 0; i < repeats; i++) {
    duet.reset();
    // The thread's CPU time (set-up includes work that reads no clock, such as zeroing the
    // disk, so clock.h cannot cut host stalls out of it), scaled to the reference speed.
    const demi::DurationNs t0 = ThreadCpuNs();
    duet = std::make_unique<Duet>(*spec, args.seed, args.seconds);
    setups.push_back(static_cast<double>(ThreadCpuNs() - t0) * TheClock().speed() / 1e9);
    report.CountSetup(duet->setup_failures());
  }
  std::sort(setups.begin(), setups.end());

  // Warm-up: not measured, never part of a registry delta.
  const double s = args.seconds;
  report.Count(duet->ClosedLoop(Share(s, 0.05), kWarmClosed, nullptr));
  report.Count(duet->OpenLoop(spec->rate_kops * 1e3, Share(s, 0.05), kWarmOpen));

  if (args.trace == 0) {
    const Measured m = Measure(*duet, *spec, s, nullptr, report);
    ReportEndToEnd(m, setups[setups.size() / 2], report);
    ReportUnbounded(m, *spec, report, /*notes=*/true);
  } else {
    SpanRecorder spans(kKeepRequests);
    const Measured m = Measure(*duet, *spec, s, &spans, report);
    ReportPerLayer(m, spans, *spec, *duet, report);
    if (!args.trace_out.empty()) {
      WriteTrace(spans, args.trace_out);
    }
  }

  // The libOS tracers must never have been on: a recording tracer taxes every I/O.
  const uint64_t libos_trace = duet->LibosTraceRecords();
  const double fail_ratio =
      Ratio(static_cast<double>(report.failed()), static_cast<double>(report.attempted()));
  Report::Note("fail_ratio", fail_ratio, "ratio");
  if (libos_trace != 0) {
    std::fprintf(stderr, "perfbench: libOS tracer recorded %" PRIu64 " events\n", libos_trace);
  }
  const bool correct = report.failed() == 0 && libos_trace == 0;
  report.PrintJson(correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <echo-tcp|echo-udp|kv-aof> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
