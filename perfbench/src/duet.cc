#include "perfbench/src/duet.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "src/common/logging.h"

namespace perfbench {

namespace {

using demi::DurationNs;
using demi::kSecond;
using demi::TimeNs;

constexpr demi::Ipv4Addr kServerIp = demi::Ipv4Addr::FromOctets(10, 0, 0, 1);
constexpr demi::Ipv4Addr kClientIp = demi::Ipv4Addr::FromOctets(10, 0, 0, 2);
constexpr demi::MacAddr kServerMac{0xA1};
constexpr demi::MacAddr kClientMac{0xB2};
constexpr uint16_t kPort = 7000;

// The AOF never wraps, so the disk holds the preload (~71 MB of records) plus every SET a run
// makes: a 20 s run appends ~100 MB, most of it during the rate search at full speed.
constexpr double kDiskBaseBytes = 96e6;
constexpr double kDiskBytesPerSecond = 8e6;

constexpr size_t kPreloadWindow = 128;

// Name, transport, kv, R_w (kops/s), p99 limit (us), set-ups per run.
constexpr WorkloadSpec kWorkloads[] = {
    {"echo-tcp", Transport::kTcp, false, 100.0, 200.0, 21},
    {"echo-udp", Transport::kUdp, false, 150.0, 200.0, 21},
    {"kv-aof", Transport::kTcp, true, 35.0, 1000.0, 3},
};

void KeyName(uint32_t key, char (&out)[16], size_t* len) {
  *len = static_cast<size_t>(std::snprintf(out, sizeof(out), "key:%08u", key));
}

uint32_t ReadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Duet::Duet(const WorkloadSpec& spec, uint64_t seed, double seconds)
    : spec_(spec), seed_(seed), payloads_(seed), value_scratch_(8192), expect_scratch_(8192) {
  net_ = std::make_unique<demi::SimNetwork>(demi::LinkConfig{}, 1);
  if (spec.kv) {
    demi::SimBlockDevice::Config dcfg;
    dcfg.num_blocks =
        static_cast<size_t>((kDiskBaseBytes + kDiskBytesPerSecond * seconds) / dcfg.block_size);
    disk_ = std::make_unique<demi::SimBlockDevice>(dcfg, TheClock());
  }
  demi::Catnip::Config scfg{kServerMac, kServerIp, demi::TcpConfig{}, disk_.get()};
  demi::Catnip::Config ccfg{kClientMac, kClientIp, demi::TcpConfig{}, nullptr};
  server_ = std::make_unique<demi::Catnip>(*net_, scfg, TheClock());
  client_ = std::make_unique<demi::Catnip>(*net_, ccfg, TheClock());
  server_->ethernet().arp().Insert(kClientIp, kClientMac);
  client_->ethernet().arp().Insert(kServerIp, kServerMac);

  const demi::SocketAddress addr{kServerIp, kPort};
  if (spec.kv) {
    demi::MiniKvOptions opts{addr};
    opts.persist = true;
    opts.aof_path = "aof";
    kv_app_ = std::make_unique<demi::MiniKvServerApp>(*server_, opts);
  } else {
    echo_app_ = std::make_unique<demi::EchoServerApp>(
        *server_, demi::EchoServerOptions{addr, spec.transport == Transport::kTcp
                                                    ? demi::SocketType::kStream
                                                    : demi::SocketType::kDatagram});
  }
  Connect();
  if (spec.kv) {
    Preload();
  }
}

Duet::~Duet() {
  for (Conn& c : conns_) {
    (void)client_->Close(c.qd);
  }
}

void Duet::Connect() {
  const demi::SocketType type =
      spec_.transport == Transport::kTcp ? demi::SocketType::kStream : demi::SocketType::kDatagram;
  std::vector<demi::QToken> connects;
  conns_.resize(kConnections);
  for (Conn& c : conns_) {
    auto sock = client_->Socket(type);
    DEMI_CHECK(sock.ok());
    c.qd = *sock;
    auto qt = client_->Connect(c.qd, {kServerIp, kPort});
    DEMI_CHECK(qt.ok());
    connects.push_back(*qt);
  }
  const TimeNs deadline = NowNs() + 5 * kSecond;
  for (demi::QToken qt : connects) {
    while (!client_->IsDone(qt)) {
      DEMI_CHECK_MSG(NowNs() < deadline, "perfbench: connect timed out");
      client_->PollOnce();
      server_->PollOnce();
      if (echo_app_) {
        echo_app_->Pump();
      } else {
        kv_app_->Pump();
      }
    }
    auto r = client_->TryTake(qt);
    DEMI_CHECK_MSG(r.ok() && r->status == demi::Status::kOk, "perfbench: connect failed");
  }
  for (Conn& c : conns_) {
    auto pop = client_->Pop(c.qd);
    DEMI_CHECK(pop.ok());
    c.pop = *pop;
  }
  // An idle PollOnce still resumes each libOS's always-runnable fibers (Catnip's fast path);
  // only resumptions beyond that baseline, or drained frames, mark a poll as busy.
  client_baseline_ = server_baseline_ = SIZE_MAX;
  for (int i = 0; i < 8; i++) {
    client_baseline_ = std::min(client_baseline_, client_->PollOnce());
    server_baseline_ = std::min(server_baseline_, server_->PollOnce());
  }
}

void Duet::Preload() {
  version_.assign(kKvKeys, 0);
  size_.assign(kKvKeys, 0);
  InputStream in(0, 0);  // value sizes of the preload do not depend on the run seed
  PhaseResult discard;
  phase_ = &discard;
  for (uint32_t key = 0; key < kKvKeys; key++) {
    while (outstanding_ >= kPreloadWindow) {
      Step<false>();
    }
    InFlight f;
    f.id = next_id_++;
    f.due = NowNs();
    f.is_set = true;
    f.key = key;
    f.version = ++version_[key];
    f.size = size_[key] = in.NextValueSize();
    Issue<false>(f);
  }
  Drain(10 * kSecond);
  setup_failures_ = discard.failed;
  phase_ = nullptr;
}

size_t Duet::ConnFor(const InFlight& f) const {
  // Every kv key has one connection, which keeps a key's requests in order (see version_).
  return spec_.kv ? f.key % kConnections : f.id % kConnections;
}

Duet::InFlight Duet::NextRequest(InputStream& in, TimeNs due) {
  InFlight f;
  f.id = next_id_++;
  f.due = due;
  if (spec_.kv) {
    const KvOp op = in.NextKvOp();
    f.key = op.key;
    f.is_set = op.is_set;
    if (op.is_set) {
      f.version = ++version_[op.key];
      f.size = size_[op.key] = op.value_size;
    } else {
      f.version = version_[op.key];
      f.size = size_[op.key];
    }
  }
  return f;
}

template <bool kTrace>
TimeNs Duet::SpanStart() {
  if constexpr (kTrace) {
    return chain_ != 0 ? chain_ : NowNs();
  } else {
    return 0;
  }
}

template <bool kTrace>
void Duet::SpanEnd(Layer layer, TimeNs start) {
  if constexpr (kTrace) {
    chain_ = NowNs();
    spans_->Add(layer, start, chain_);
  }
}

template <bool kTrace, typename F>
auto Duet::Timed(Layer layer, F&& f) {
  const TimeNs t0 = SpanStart<kTrace>();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    SpanEnd<kTrace>(layer, t0);
  } else {
    auto r = f();
    SpanEnd<kTrace>(layer, t0);
    return r;
  }
}

template <bool kTrace>
void Duet::Issue(InFlight f) {
  Conn& c = conns_[ConnFor(f)];
  phase_->attempted++;
  void* buf = nullptr;
  uint32_t len = 0;
  if (!spec_.kv) {
    len = kEchoBytes;
    buf = Timed<kTrace>(Layer::kDmaMalloc, [&] { return client_->DmaMalloc(len); });
    payloads_.Echo(f.id, {static_cast<uint8_t*>(buf), len});
    chain_ = 0;  // the payload fill is the benchmark's own work
  } else {
    char key[16];
    size_t klen = 0;
    KeyName(f.key, key, &klen);
    // Never a null view: KvEncodeRequest memcpy()s the value even when it is empty.
    std::string_view value = "";
    if (f.is_set) {
      payloads_.Value(f.key, f.version, {value_scratch_.data(), f.size});
      value = {reinterpret_cast<const char*>(value_scratch_.data()), f.size};
    }
    len = static_cast<uint32_t>(4 + 7 + klen + value.size());
    chain_ = 0;
    buf = Timed<kTrace>(Layer::kDmaMalloc, [&] { return client_->DmaMalloc(len); });
    const size_t n = Timed<kTrace>(Layer::kKvCodec, [&] {
      return demi::KvEncodeRequest(f.is_set ? demi::KvOp::kSet : demi::KvOp::kGet,
                                   std::string_view(key, klen), value,
                                   static_cast<uint8_t*>(buf), len);
    });
    DEMI_CHECK(n == len);
  }
  auto push = Timed<kTrace>(Layer::kCorePush,
                            [&] { return client_->Push(c.qd, demi::Sgarray::Of(buf, len)); });
  // Zero-copy push: the heap defers the recycle until the stack is done with the buffer.
  Timed<kTrace>(Layer::kDmaFree, [&] { client_->DmaFree(buf); });
  if (!push.ok()) {
    phase_->failed++;
    return;
  }
  if (Timed<kTrace>(Layer::kCoreTake, [&] { return client_->IsDone(*push); })) {
    auto r = Timed<kTrace>(Layer::kCoreTake, [&] { return client_->TryTake(*push); });
    if (!r.ok() || r->status != demi::Status::kOk) {
      phase_->failed++;
      return;
    }
  } else {
    pending_push_.push_back(*push);
  }
  c.inflight.push_back(f);
  outstanding_++;
}

template <bool kTrace>
bool Duet::PollSide(demi::Catnip& os, size_t baseline, Layer busy, Layer idle) {
  const TimeNs t0 = SpanStart<kTrace>();
  const uint64_t bursts = os.ethernet().stats().rx_bursts;
  const size_t resumed = os.PollOnce();
  const bool did_work = resumed > baseline || os.ethernet().stats().rx_bursts != bursts;
  SpanEnd<kTrace>(did_work ? busy : idle, t0);
  return did_work;
}

template <bool kTrace>
void Duet::Step() {
  const bool client_busy =
      PollSide<kTrace>(*client_, client_baseline_, Layer::kClientPollBusy, Layer::kClientPollIdle);
  const bool server_busy =
      PollSide<kTrace>(*server_, server_baseline_, Layer::kServerPollBusy, Layer::kServerPollIdle);
  phase_->polls += 2;
  phase_->busy_polls += static_cast<uint64_t>(client_busy) + static_cast<uint64_t>(server_busy);

  const TimeNs t0 = SpanStart<kTrace>();
  const size_t served = echo_app_ ? echo_app_->Pump() : kv_app_->Pump();
  SpanEnd<kTrace>(served > 0 ? Layer::kServerPumpServed : Layer::kServerPump, t0);

  for (size_t i = 0; i < pending_push_.size();) {
    const demi::QToken qt = pending_push_[i];
    if (!Timed<kTrace>(Layer::kCoreTake, [&] { return client_->IsDone(qt); })) {
      i++;
      continue;
    }
    auto r = Timed<kTrace>(Layer::kCoreTake, [&] { return client_->TryTake(qt); });
    // A failed push is not counted here: its request gets no reply and fails in Drain.
    (void)r;
    pending_push_[i] = pending_push_.back();
    pending_push_.pop_back();
  }
  for (Conn& c : conns_) {
    if (!c.inflight.empty()) {
      Harvest<kTrace>(c);
    }
  }
}

template <bool kTrace>
void Duet::Harvest(Conn& c) {
  if (!Timed<kTrace>(Layer::kCoreTake, [&] { return client_->IsDone(c.pop); })) {
    return;
  }
  auto r = Timed<kTrace>(Layer::kCoreTake, [&] { return client_->TryTake(c.pop); });
  DEMI_CHECK_MSG(r.ok() && r->status == demi::Status::kOk, "perfbench: pop failed (%d)",
                 r.ok() ? static_cast<int>(r->status) : static_cast<int>(r.error()));
  for (uint32_t i = 0; i < r->sga.num_segs; i++) {
    const uint8_t* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
    c.rx.insert(c.rx.end(), p, p + r->sga.segs[i].len);
  }
  chain_ = 0;
  Timed<kTrace>(Layer::kDmaFree, [&] { client_->FreeSga(r->sga); });
  auto pop = Timed<kTrace>(Layer::kCorePop, [&] { return client_->Pop(c.qd); });
  DEMI_CHECK(pop.ok());
  c.pop = *pop;

  // Replies are framed: 64 B per echo, [u32 len][body] per kv response.
  for (;;) {
    const size_t avail = c.rx.size() - c.rx_off;
    const uint8_t* p = c.rx.data() + c.rx_off;
    size_t header = 0;
    size_t body = kEchoBytes;
    if (spec_.kv) {
      if (avail < 4) {
        break;
      }
      header = 4;
      body = ReadLe32(p);
    }
    if (avail < header + body) {
      break;
    }
    if (c.inflight.empty()) {
      // A reply nobody asked for: the stream is out of step with the requests.
      phase_->failed++;
      c.rx_off = c.rx.size();
      break;
    }
    const InFlight f = c.inflight.front();
    c.inflight.pop_front();
    outstanding_--;
    Complete(f, VerifyFrame<kTrace>(f, {p + header, body}));
    chain_ = 0;
    c.rx_off += header + body;
  }
  if (c.rx_off == c.rx.size()) {
    c.rx.clear();
    c.rx_off = 0;
  }
  chain_ = 0;
}

template <bool kTrace>
bool Duet::VerifyFrame(const InFlight& f, std::span<const uint8_t> frame) {
  if (!spec_.kv) {
    payloads_.Echo(f.id, {expect_scratch_.data(), kEchoBytes});
    return std::memcmp(frame.data(), expect_scratch_.data(), kEchoBytes) == 0;
  }
  demi::KvResponseView resp;
  const bool parsed =
      Timed<kTrace>(Layer::kKvCodec, [&] { return demi::KvParseResponse(frame, &resp); });
  if (!parsed || resp.status != demi::KvStatus::kOk) {
    return false;
  }
  if (f.is_set) {
    return resp.value.empty();
  }
  if (resp.value.size() != f.size) {
    return false;
  }
  payloads_.Value(f.key, f.version, {expect_scratch_.data(), f.size});
  return std::memcmp(resp.value.data(), expect_scratch_.data(), f.size) == 0;
}

void Duet::Complete(const InFlight& f, bool ok) {
  if (!ok) {
    phase_->failed++;
    return;
  }
  const uint64_t ns = static_cast<uint64_t>(NowNs() - f.due);
  phase_->latency_ns.push_back(ns);
  if (phase_duration_ > 0) {
    const DurationNs since = std::max<DurationNs>(0, f.due - phase_start_);
    phase_->tick_ns[std::min<size_t>(kTicks - 1,
                                     static_cast<size_t>(since * kTicks / phase_duration_))]
        .push_back(ns);
  }
  if (spec_.kv) {
    if (f.is_set) {
      phase_->sets++;
      phase_->set_ns.push_back(ns);
    } else {
      phase_->get_ns.push_back(ns);
    }
  }
}

void Duet::Drain(DurationNs timeout) {
  const TimeNs deadline = NowNs() + timeout;
  while (outstanding_ > 0 && NowNs() < deadline) {
    Step<false>();
  }
  if (outstanding_ > 0) {
    // Lost or stuck replies: count them and forget the requests (the run is reported failed).
    phase_->failed += outstanding_;
    for (Conn& c : conns_) {
      c.inflight.clear();
    }
    outstanding_ = 0;
  }
}

PhaseResult Duet::ClosedLoop(DurationNs duration, uint64_t phase, SpanRecorder* spans) {
  PhaseResult result;
  phase_ = &result;
  phase_duration_ = 0;
  spans_ = spans;
  InputStream in(seed_, phase);
  const TimeNs start = NowNs();
  TimeNs now = start;
  while (now - start < duration) {
    const InFlight f = NextRequest(in, NowNs());
    const TimeNs deadline = f.due + kSecond;
    if (spans != nullptr) {
      spans->BeginRequest(f.id, f.due);
      chain_ = 0;
      Issue<true>(f);
      while (outstanding_ > 0 && NowNs() < deadline) {
        Step<true>();
      }
      spans->EndRequest(NowNs(), f.is_set ? RequestClass::kWrite : RequestClass::kRead);
    } else {
      Issue<false>(f);
      while (outstanding_ > 0 && NowNs() < deadline) {
        Step<false>();
      }
    }
    Drain(0);
    now = NowNs();
  }
  phase_ = nullptr;
  spans_ = nullptr;
  return result;
}

PhaseResult Duet::OpenLoop(double rate_per_s, DurationNs duration, uint64_t phase) {
  PhaseResult result;
  phase_ = &result;
  phase_start_ = NowNs();
  phase_duration_ = std::max<DurationNs>(duration, 1);
  InputStream in(seed_, phase);
  const TimeNs start = phase_start_;
  const TimeNs end = start + duration;
  TimeNs next_due = start + in.NextGapNs(rate_per_s);
  size_t tick = 0;
  for (;;) {
    const TimeNs now = NowNs();
    const size_t current =
        std::min<size_t>(kTicks, static_cast<size_t>((now - start) * kTicks / duration));
    while (tick < current) {
      result.tick_outstanding[tick++] = outstanding_;
    }
    if (now >= end) {
      break;
    }
    result.hit_cap |= next_due <= now && outstanding_ >= kMaxOutstanding;
    while (next_due <= now && outstanding_ < kMaxOutstanding) {
      Issue<false>(NextRequest(in, next_due));
      result.lag_ns.push_back(static_cast<uint64_t>(NowNs() - next_due));
      next_due += in.NextGapNs(rate_per_s);
    }
    Step<false>();
  }
  Drain(2 * kSecond);
  // A sustainable rate keeps the outstanding count flat; an overloaded one makes it climb
  // through the phase. Medians over the first and last quarter of the ticks ignore a stall.
  auto quarter_median = [&](size_t first) {
    std::array<size_t, kTicks / 4> q;
    std::copy_n(result.tick_outstanding.begin() + first, q.size(), q.begin());
    std::sort(q.begin(), q.end());
    return q[q.size() / 2];
  };
  result.backlog_grew = quarter_median(kTicks - kTicks / 4) > 2 * quarter_median(0) + 16;
  phase_ = nullptr;
  return result;
}

Counters Duet::Snapshot() const {
  Counters out;
  for (const demi::Catnip* os : {server_.get(), client_.get()}) {
    for (const auto& s : os->metrics().Snapshot()) {
      if (s.type != demi::MetricType::kHistogram) {
        out[s.name] += s.value;
      }
    }
  }
  return out;
}

uint64_t Duet::LibosTraceRecords() const {
  return server_->tracer().total_recorded() + client_->tracer().total_recorded();
}

}  // namespace perfbench
