// One workload on one thread: a Catnip server and a Catnip client on the in-process SimNetwork
// (1 µs one-way, 100 Gbps, lossless), driven in "duet" mode — the benchmark's polling loop runs
// the client libOS, the server libOS and the server app in turn. No frame touches a real NIC or
// the loopback interface.
//
// The client keeps up to four connections. Replies on one connection come back in order, so
// each connection matches replies to a FIFO of its in-flight requests and checks every byte.

#ifndef PERFBENCH_SRC_DUET_H_
#define PERFBENCH_SRC_DUET_H_

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/spans.h"
#include "src/apps/echo.h"
#include "src/apps/minikv.h"
#include "src/liboses/catnip.h"
#include "src/storage/sim_block_device.h"

namespace perfbench {

enum class Transport { kTcp, kUdp };

// A workload and the constants that a performance change must never move: the open-loop rate
// R_w (set near half of the workload's slo_kops when the benchmark was defined) and the p99
// limit of the rate search.
struct WorkloadSpec {
  const char* name;
  Transport transport;
  bool kv;
  double rate_kops;       // R_w
  double p99_limit_us;    // rate-search latency limit
  int setup_repeats;      // set-ups per run; setup_s is their median
};

const WorkloadSpec* FindWorkload(std::string_view name);

// An open-loop phase is cut into this many ticks by due time. The host is a shared VM that
// sometimes deschedules the process for milliseconds; such a stall spoils a few ticks, while an
// overload spoils every tick after the backlog builds up.
constexpr size_t kTicks = 16;

// What one timed phase observed.
struct PhaseResult {
  std::vector<uint64_t> latency_ns;  // every completed request
  std::vector<uint64_t> get_ns;      // kv GETs
  std::vector<uint64_t> set_ns;      // kv SETs
  std::vector<uint64_t> lag_ns;      // open loop: send time minus due time
  // Open loop: latencies by the tick in which the request was due, and the outstanding
  // request count at the end of each tick.
  std::array<std::vector<uint64_t>, kTicks> tick_ns;
  std::array<size_t, kTicks> tick_outstanding{};
  uint64_t attempted = 0;
  uint64_t failed = 0;      // timeouts, error statuses, wrong bytes
  uint64_t sets = 0;
  uint64_t polls = 0;       // client + server PollOnce calls
  uint64_t busy_polls = 0;  // of which did work
  bool backlog_grew = false;  // open loop: outstanding requests grew over the phase
  bool hit_cap = false;       // open loop: the generator had to wait at kMaxOutstanding
};

using Counters = std::unordered_map<std::string, int64_t>;

class Duet {
 public:
  // Set-up: builds the libOS pair (and the disk for kv, sized for a run of `seconds`), starts
  // the server app, connects the client and, for kv, preloads every key through the server.
  Duet(const WorkloadSpec& spec, uint64_t seed, double seconds);
  ~Duet();

  Duet(const Duet&) = delete;
  Duet& operator=(const Duet&) = delete;

  // Closed loop, one request in flight, for `duration`. With `spans`, every layer call is
  // recorded as a child span of its request.
  PhaseResult ClosedLoop(demi::DurationNs duration, uint64_t phase, SpanRecorder* spans);
  // Open loop: Poisson arrivals at `rate_per_s`, each request timed from when it was due. At
  // kMaxOutstanding the generator waits; the wait shows as latency and lag.
  PhaseResult OpenLoop(double rate_per_s, demi::DurationNs duration, uint64_t phase);

  // Both libOSes' registries, summed by metric name (scalar metrics only).
  Counters Snapshot() const;
  // Events recorded by the libOSes' own tracers (must stay 0: they are never enabled).
  uint64_t LibosTraceRecords() const;
  // Failures seen while preloading (kv).
  uint64_t setup_failures() const { return setup_failures_; }

  static constexpr size_t kConnections = 4;
  // Below the server's 1024-datagram UDP socket queue, so an overload never drops a request.
  static constexpr size_t kMaxOutstanding = 512;

 private:
  struct InFlight {
    uint64_t id = 0;
    demi::TimeNs due = 0;
    bool is_set = false;
    uint32_t key = 0;
    uint32_t version = 0;
    uint32_t size = 0;
  };
  struct Conn {
    demi::QueueDesc qd = demi::kInvalidQd;
    demi::QToken pop = demi::kInvalidQToken;
    std::vector<uint8_t> rx;
    size_t rx_off = 0;
    std::deque<InFlight> inflight;
  };

  void Connect();
  void Preload();
  template <bool kTrace>
  void Issue(InFlight f);
  template <bool kTrace>
  void Step();
  template <bool kTrace>
  bool PollSide(demi::Catnip& os, size_t baseline, Layer busy, Layer idle);
  template <bool kTrace>
  void Harvest(Conn& c);
  template <bool kTrace>
  bool VerifyFrame(const InFlight& f, std::span<const uint8_t> frame);
  void Complete(const InFlight& f, bool ok);
  // Steps until nothing is outstanding or `timeout` passes; what is left counts as failed.
  void Drain(demi::DurationNs timeout);
  InFlight NextRequest(InputStream& in, demi::TimeNs due);
  size_t ConnFor(const InFlight& f) const;
  // Span boundaries: consecutive layer calls share one clock read (one span's end is the next
  // one's start); chain_ = 0 after the benchmark's own work starts the next span afresh, so that
  // work stays in the request's self time.
  template <bool kTrace>
  demi::TimeNs SpanStart();
  template <bool kTrace>
  void SpanEnd(Layer layer, demi::TimeNs start);
  template <bool kTrace, typename F>
  auto Timed(Layer layer, F&& f);

  const WorkloadSpec& spec_;
  uint64_t seed_;
  Payloads payloads_;
  std::unique_ptr<demi::SimBlockDevice> disk_;
  std::unique_ptr<demi::SimNetwork> net_;
  std::unique_ptr<demi::Catnip> server_;
  std::unique_ptr<demi::Catnip> client_;
  std::unique_ptr<demi::EchoServerApp> echo_app_;
  std::unique_ptr<demi::MiniKvServerApp> kv_app_;
  std::vector<Conn> conns_;
  std::vector<demi::QToken> pending_push_;
  size_t client_baseline_ = 1;  // fibers an idle PollOnce resumes (Catnip's fast-path fiber)
  size_t server_baseline_ = 1;
  size_t outstanding_ = 0;
  uint64_t next_id_ = 1;
  uint64_t setup_failures_ = 0;
  // kv shadow: the version and size of the last SET issued per key. A connection serves its
  // requests in order and every key maps to one connection, so a GET must return exactly the
  // SET issued last before it — which is also the last one acknowledged when the GET returns.
  std::vector<uint32_t> version_;
  std::vector<uint32_t> size_;
  std::vector<uint8_t> value_scratch_;
  std::vector<uint8_t> expect_scratch_;
  PhaseResult* phase_ = nullptr;
  demi::TimeNs phase_start_ = 0;
  demi::DurationNs phase_duration_ = 0;  // open loop only; 0 in a closed loop
  SpanRecorder* spans_ = nullptr;
  demi::TimeNs chain_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DUET_H_
