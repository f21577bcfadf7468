// The Catnip TCP stack (paper §6.3): RFC 793 + window scaling from RFC 7323, Cubic congestion
// control, zero-copy send path, deterministic time parameterization.
//
// Structure mirrors the paper, scaled for a million connections per shard (docs/SCALING.md):
//  - The *fast path* is TcpStack::OnIpv4Packet -> TcpConnection::OnSegment: in-order, error-free
//    segments are processed run-to-completion and the blocked application is woken directly.
//    Demultiplexing goes through an open-addressed flow table (flow_table.h) keyed by the packed
//    4-tuple — one hash, short linear probes, no per-packet allocation.
//  - Protocol timers (retransmit, delayed ack, handshake retry / persist / TIME_WAIT) are plain
//    deadlines in the TCB behind one O(1) timing-wheel entry per connection
//    (src/runtime/timer_wheel.h), armed at or before the earliest of them. A later deadline is
//    only a store; the entry fires, handles what is due and re-arms ("let it fire and check").
//  - Connection state is split hot/cold: the first cache line of TcpConnection (HotState) holds
//    everything a pure-ack round trip touches; queues, reassembly, congestion state and events
//    (ColdState) are allocated on first use. A cookie-accepted connection that never transfers
//    data never allocates its cold half.
//  - With `TcpConfig::syn_cookies` on, SYN handling is stateless (syn_cookies.h): the TCB is
//    deferred until the third ACK proves the handshake, so a SYN flood allocates nothing.
//  - For full zero-copy the send path keeps one queue of the application's pushed buffer
//    *views* rather than copying into a byte buffer. A segment in flight is a byte range over
//    that queue, gathered into at most kTcpMaxSegmentSlices spans when it is (re)sent; a view
//    stays in the queue, pinning its buffer, until it is cumulatively acked, which is what
//    makes UAF protection necessary and sufficient (§5.3, §6.3).

#ifndef SRC_NET_TCP_TCP_H_
#define SRC_NET_TCP_TCP_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/core/tenant.h"
#include "src/memory/buffer.h"
#include "src/net/ethernet.h"
#include "src/net/tcp/congestion.h"
#include "src/net/tcp/flow_table.h"
#include "src/net/tcp/syn_cookies.h"
#include "src/net/tcp/tcb_slab.h"
#include "src/net/tcp/tcp_types.h"
#include "src/observability/trace.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/wait_list.h"

namespace demi {

class TcpStack;
class TcpListener;

// RFC 6298 RTT estimation with exponential backoff. Karn's algorithm (§3 of the RFC) lives in
// the caller: acks whose range covers a retransmitted segment never produce a timer sample
// (timestamp-based RTTM samples are immune and always valid).
class RttEstimator {
 public:
  explicit RttEstimator(const TcpConfig& config)
      : config_(config), rto_(config.initial_rto) {}

  void OnSample(DurationNs rtt) {
    if (srtt_ == 0) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
    } else {
      const int64_t err = static_cast<int64_t>(srtt_) - static_cast<int64_t>(rtt);
      rttvar_ = (3 * rttvar_ + static_cast<DurationNs>(err < 0 ? -err : err)) / 4;
      srtt_ = (7 * srtt_ + rtt) / 8;
    }
    rto_ = Clamp(srtt_ + std::max<DurationNs>(4 * rttvar_, 1));
  }

  void Backoff() { rto_ = Clamp(rto_ * 2); }

  DurationNs rto() const { return rto_; }
  DurationNs srtt() const { return srtt_; }

 private:
  DurationNs Clamp(DurationNs v) const {
    return std::min(std::max(v, config_.min_rto), kTcpMaxRto);
  }
  const TcpConfig& config_;
  DurationNs srtt_ = 0;
  DurationNs rttvar_ = 0;
  DurationNs rto_;
};

// A data segment's payload is gathered from at most this many send-queue spans: the NIC TX
// gather list holds 8 entries, [eth+ip hdr | tcp hdr | payload spans...].
inline constexpr size_t kTcpMaxSegmentSlices = 6;

class TcpConnection {
 public:
  TcpConnection(TcpStack& stack, SocketAddress local, SocketAddress remote, SeqNum iss);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- Application-facing (via the Catnip libOS) ---

  // Queues `data` for transmission and transmits inline as far as the windows allow
  // (run-to-completion push, §5.2). The connection holds references to the underlying object
  // until the receiver acknowledges it.
  [[nodiscard]] Status Push(Buffer data);

  // Returns the next chunk of in-order received data, or nullopt if none is ready.
  std::optional<Buffer> PopData();
  bool HasReadyData() const { return cold_ != nullptr && !cold_->ready.empty(); }
  // The data PopData returns next, oldest first; valid while HasReadyData(). A zero-copy
  // consumer may reference it in place, still counted against the receive window.
  const std::deque<Buffer>& ReadyData() const { return cold_->ready; }
  // True once the peer's FIN is reached AND all data before it has been popped.
  bool EndOfStream() const {
    return hot_.remote_fin_received && (cold_ == nullptr || cold_->ready.empty());
  }

  // Half-closes the local side; queued data (then FIN) still drains.
  [[nodiscard]] Status Close();
  // Hard reset.
  void Abort();

  TcpState state() const { return hot_.state; }
  [[nodiscard]] Status error() const { return error_; }
  SocketAddress local() const { return local_; }
  SocketAddress remote() const { return remote_; }

  WaitList& readable() { return EnsureCold().readable; }
  WaitList& established_event() { return EnsureCold().established; }

  // The libOS dropped its queue descriptor: the stack may reap once fully closed.
  void ReleaseByApp() { hot_.app_released = true; }
  bool app_released() const { return hot_.app_released; }

  // Isolation domain this connection's memory and TX bandwidth are charged to. Inherited from
  // the listener on passive open, set by the libOS on active open. Lives outside HotState:
  // the pure-ack path never reads it (SendSegment takes it as a parameter).
  TenantId tenant() const { return tenant_; }
  void set_tenant(TenantId tenant) { tenant_ = tenant; }

  struct ConnStats {
    uint64_t segments_sent = 0;
    uint64_t segments_received = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t retransmits = 0;
    uint64_t fast_retransmits = 0;
    uint64_t out_of_order = 0;
    uint64_t dup_acks_seen = 0;
    uint64_t paws_drops = 0;        // segments rejected by PAWS (RFC 7323 §5)
    uint64_t ts_rtt_samples = 0;    // RTT samples taken from tsecr (RTTM)
    uint64_t coalesced_segments = 0;  // data segments that carried >1 gathered buffer slice
    uint64_t delayed_acks = 0;        // pure acks held to the delayed-ack timer before sending
  };
  bool timestamps_enabled() const { return hot_.ts_enabled; }
  // Counters live in the cold half; a connection that never materialized one reports zeros.
  const ConnStats& conn_stats() const;
  const RttEstimator& rtt_estimator() const { return rtt_; }
  size_t BytesInFlight() const { return cold_ == nullptr ? 0 : cold_->bytes_inflight; }
  // Bytes accepted by Push but not yet acked (unsent + in flight); splice's disk→net
  // backpressure signal — reading past this watermark would only grow the send queues.
  size_t SendBacklogBytes() const {
    return cold_ == nullptr ? 0 : cold_->unsent_bytes + cold_->bytes_inflight;
  }
  size_t cwnd() const { return cold_ == nullptr ? 0 : cold_->cc.cwnd(); }
  // Wire payload budget per segment (MSS minus negotiated option overhead); what the
  // coalescer fills to and the "full-sized segment" threshold of the ack policy.
  size_t effective_mss() const { return EffectiveMss(); }
  // True while the connection is hot-only (no queues/congestion/event state allocated yet).
  bool IsHotOnly() const { return cold_ == nullptr; }

 private:
  friend class TcpStack;

  // A segment in flight: no payload of its own, its `len` bytes sit at `seq` in the send
  // queue (the front record's at the queue's front, since the queue starts at snd_una).
  struct InflightSegment {
    SeqNum seq;
    uint32_t len = 0;  // payload bytes; 0 for a bare FIN
    TimeNs sent_at = 0;
    TimeNs rto_deadline = 0;
    bool fin = false;
    bool retransmitted = false;
  };

  // A byte position in the send queue: view index and offset into that view. Either the
  // offset lies inside the view, or the position is the queue's end (view == size, off 0).
  struct SendCursor {
    size_t view = 0;
    size_t off = 0;
  };

  static constexpr TimeNs kNoDeadline = UINT64_MAX;

  // What the state deadline is for; the kinds are mutually exclusive by TCP state (handshake
  // retry before ESTABLISHED, persist while established, TIME_WAIT after).
  enum class StateTimerKind : uint8_t {
    kNone,
    kConnectRetry,  // active open: SYN retransmission with doubling timeout
    kSynAckRetry,   // stateful passive open: SYN-ACK retransmission
    kPersist,       // zero-window probing
    kTimeWait,      // 2MSL hold before CLOSED
  };

  // The first cache line: every field a pure-ack round trip on an established connection
  // reads or writes (docs/SCALING.md §3 documents the layout and byte budget).
  struct HotState {
    TimerId timer = kInvalidTimerId;    // the connection's one wheel entry
    TimeNs timer_at = 0;                // its deadline: no live deadline is earlier
    TimeNs ack_deadline = kNoDeadline;  // delayed/pending pure ack
    SeqNum snd_una;                     // oldest unacked
    SeqNum snd_nxt;                     // next to send
    SeqNum rcv_nxt;
    uint32_t snd_wnd = 0;     // peer-advertised, scaled
    uint32_t ts_recent = 0;   // latest valid peer tsval (echoed as tsecr)
    uint16_t mss = 1460;
    TcpState state = TcpState::kClosed;
    uint8_t snd_wscale = 0;          // peer's scale
    uint8_t rcv_wscale = 0;          // our advertised scale (0 until negotiated)
    uint8_t dup_acks = 0;
    uint8_t consecutive_retx = 0;    // saturating; reset by every new ack
    uint8_t hs_attempts = 0;         // handshake retransmissions so far
    StateTimerKind state_timer_kind = StateTimerKind::kNone;  // kNone: no state deadline
    uint8_t full_segs_since_ack = 0;  // full-MSS segments received since we last sent an ack
    bool app_released : 1 = false;
    bool fin_queued : 1 = false;
    bool fin_sent : 1 = false;
    bool our_fin_acked : 1 = false;
    bool remote_fin_seen : 1 = false;      // FIN segment received (maybe out of order)
    bool remote_fin_received : 1 = false;  // rcv_nxt advanced past the FIN
    bool ts_enabled : 1 = false;           // RFC 7323 timestamps negotiated
    bool ts_recent_valid : 1 = false;
    bool ack_needed : 1 = false;
    bool ack_immediate : 1 = false;      // send at burst end / next poll, not the delay timer
    bool ack_pending_listed : 1 = false;  // queued on the stack's per-burst ack flush list
  };
  static_assert(sizeof(HotState) <= 64, "HotState must fit one cache line");

  // Everything else: allocated on first data (or first app wait), ~3 KB once the deques are
  // warm. A half-open or idle cookie-accepted connection never pays for it.
  struct ColdState {
    explicit ColdState(size_t mss) : cc(mss) {}

    // Every pushed view from snd_una on: the in-flight bytes first, then the unsent ones.
    std::deque<Buffer> send_queue;
    SendCursor next;  // snd_nxt's position in send_queue
    size_t unsent_bytes = 0;
    std::deque<InflightSegment> inflight;
    size_t bytes_inflight = 0;
    std::deque<Buffer> ready;
    size_t ready_bytes = 0;
    std::map<uint32_t, Buffer> reassembly;  // seq (absolute) -> payload
    size_t reassembly_bytes = 0;
    CubicCongestion cc;
    WaitList readable;
    WaitList established;
    ConnStats stats;
  };

  // --- Stack-facing ---
  void OnSegment(const TcpHeader& hdr, std::span<const uint8_t> payload, TimeNs now);
  void StartActiveOpen(TimeNs now);
  void StartPassiveOpen(const TcpHeader& syn, TcpListener* listener, TimeNs now);
  // Cookie-validated third ACK: the connection is born ESTABLISHED, hot-only.
  void CompleteCookieOpen(const TcpHeader& ack, const SynCookies::SynOptions& opts);

  // --- Internals ---
  ColdState& EnsureCold();
  void ProcessAck(const TcpHeader& hdr, TimeNs now);
  void ProcessData(const TcpHeader& hdr, std::span<const uint8_t> payload, TimeNs now);
  void DrainReassembly();
  void HandleFinReached(TimeNs now);
  void OnOurFinAcked(TimeNs now);
  void TrySend(TimeNs now);
  // Sends the next segment, up to `budget` unsent bytes at the cursor, and records it in flight.
  void SendNextSegment(size_t budget, TimeNs now);
  // The one segment sender: sends `seg` with up to `budget` payload bytes gathered from the send
  // queue at `*at` (at most kTcpMaxSegmentSlices spans), sets seg.len and its timestamps,
  // advances `*at` past the payload, and returns the span count.
  size_t SendDataSegment(InflightSegment& seg, SendCursor* at, size_t budget, TimeNs now);
  // Resends the front in-flight segment, which starts at the front of the send queue.
  void ResendFront(TimeNs now);
  // Releases `n` cumulatively acked bytes from the front of the send queue.
  void DropAcked(size_t n);
  [[nodiscard]] Status SendControl(TcpFlags flags, SeqNum seq, bool with_options, TimeNs now);
  void ScheduleAck(TimeNs now);         // urgent: goes out at burst end or the next poll
  void ScheduleDelayedAck(TimeNs now);  // coalescing: arm (or keep) the delayed-ack deadline
  void SendPureAck(TimeNs now);
  // RFC 7323 TSval for `now`: a 1 µs tick, fine-grained enough for µs RTTs; wraps in ~71
  // minutes (acceptable for the fabric's MSL; PAWS comparisons use wrapping arithmetic).
  static uint32_t Tsval(TimeNs now) { return static_cast<uint32_t>(now / 1000); }
  void StampTimestamps(TcpHeader* hdr, TimeNs now) const;
  void EnterTimeWait(TimeNs now);
  void EnterClosed(Status error);
  size_t EffectiveSendWindow() const;
  // MSS minus per-segment option overhead (timestamps consume 12 bytes of header on every
  // segment once negotiated, RFC 7323 appendix A).
  size_t EffectiveMss() const { return hot_.mss - (hot_.ts_enabled ? 12 : 0); }
  uint16_t AdvertisedWindow() const;
  size_t ReceiveCapacityLeft() const;

  // --- Timer plumbing (three deadlines, one wheel entry per connection) ---
  // The retransmit deadline is inflight.front()'s; the ack and state deadlines are fields.
  // Setting or clearing one is a store; NoteDeadline re-arms the entry only when a deadline
  // lands before the one it is armed for, so a timer never fires late.
  void NoteDeadline(TimeNs deadline);
  TimeNs RetxDeadline() const;   // kNoDeadline when nothing is in flight
  TimeNs RetxWake(TimeNs now) const;  // when the entry must wake for the retransmit deadline
  TimeNs StateDeadline() const;  // kNoDeadline when state_timer_kind is kNone
  void SetStateDeadline(StateTimerKind kind, TimeNs deadline);
  // Clears every deadline and cancels the entry (the connection closed).
  void ClearTimers();
  // Sets (or clears) the zero-window persist deadline after any send-side progress point.
  void MaybeArmPersist(TimeNs now);
  // The entry fired: handles each due deadline (retransmit, then ack, then state) and re-arms
  // at the next one.
  static void TimerCb(void* ctx, uint64_t arg);
  void OnTimer(TimeNs now);
  void OnRetxTimer(TimeNs now);
  void OnAckTimer(TimeNs now);
  void OnStateTimer(TimeNs now);

  uint64_t FlowKey() const;

  HotState hot_;  // first member: the hot line starts at offset 0
  TcpStack& stack_;
  SocketAddress local_;
  SocketAddress remote_;
  TenantId tenant_ = kDefaultTenant;
  Status error_ = Status::kOk;
  TcpListener* pending_listener_ = nullptr;  // stateful passive open: deliver on ESTABLISHED
  TimeNs state_deadline_ = 0;  // valid while hot_.state_timer_kind != kNone
  SeqNum iss_;
  SeqNum irs_;
  SeqNum fin_seq_;         // sequence of our FIN once sent
  SeqNum remote_fin_seq_;  // sequence of the peer's FIN
  RttEstimator rtt_;
  std::unique_ptr<ColdState> cold_;
};

class TcpListener {
 public:
  bool HasPending() const { return !ready_.empty(); }
  // Pops the next established connection (releasing its tenant accept-admission slot);
  // nullptr when none is ready. Defined in tcp.cc: it reaches back into the stack's
  // TenantTable.
  std::shared_ptr<TcpConnection> Accept();
  WaitList& acceptable() { return acceptable_; }
  uint16_t port() const { return port_; }
  // Isolation domain for connections accepted through this listener.
  TenantId tenant() const { return tenant_; }
  void set_tenant(TenantId tenant) { tenant_ = tenant; }

 private:
  friend class TcpStack;
  friend class TcpConnection;
  uint16_t port_ = 0;
  size_t backlog_ = 64;
  size_t syn_rcvd_count_ = 0;
  TenantId tenant_ = kDefaultTenant;
  TcpStack* stack_ = nullptr;
  std::deque<std::shared_ptr<TcpConnection>> ready_;
  WaitList acceptable_;
};

class TcpStack final : public Ipv4Receiver {
 public:
  TcpStack(EthernetLayer& eth, Scheduler& scheduler, PoolAllocator& alloc, Clock& clock,
           TcpConfig config = TcpConfig{});
  ~TcpStack();

  // Active open; the returned connection is in SYN_SENT — wait on established_event().
  Result<std::shared_ptr<TcpConnection>> Connect(SocketAddress remote);

  Result<TcpListener*> Listen(uint16_t port, size_t backlog);
  void CloseListener(TcpListener* listener);

  // `now` is the poll's time: every segment of a burst, and the burst-end acks, run on it.
  void OnIpv4Packet(const Ipv4Header& ip, std::span<const uint8_t> l4, TimeNs now) override;
  void OnRxBurstBegin() override;
  void OnRxBurstEnd(TimeNs now) override;

  // Destroys connections that are fully closed and released by the application.
  void Reap();

  size_t DefaultMss() const;
  const TcpConfig& config() const { return config_; }
  Scheduler& scheduler() { return scheduler_; }
  Clock& clock() { return clock_; }
  PoolAllocator& allocator() { return alloc_; }

  struct Stats {
    uint64_t segments_rx = 0;
    uint64_t segments_tx = 0;
    uint64_t rst_sent = 0;
    uint64_t no_connection = 0;
    uint64_t parse_errors = 0;
    uint64_t rx_checksum_drops = 0;  // software-verified checksum mismatch (corruption caught)
    uint64_t rx_alloc_drops = 0;     // segment payload dropped: heap exhausted (sender retransmits)
    uint64_t tx_errors = 0;          // segment transmit failures absorbed (retransmission recovers)
    uint64_t conns_opened = 0;
    uint64_t conns_reaped = 0;
    uint64_t syn_cookies_sent = 0;       // stateless SYN-ACKs answered with a cookie ISS
    uint64_t syn_cookies_validated = 0;  // third ACKs whose cookie checked out (TCB created)
  };
  const Stats& stats() const { return stats_; }
  size_t NumConnections() const { return conns_.size(); }
  // Called by connections when an RX payload is dropped on heap exhaustion.
  void CountRxAllocDrop() { stats_.rx_alloc_drops++; }
  // Called where a segment transmit failure is deliberately absorbed: the segment stays
  // inflight/unsent and the retransmission machinery recovers, but the failure is counted
  // (tcp.tx_errors) rather than silently discarded.
  void CountTxError() { stats_.tx_errors++; }

  // Stack-wide per-connection totals: live connections summed with everything already reaped,
  // so counters never go backwards when closed state is garbage-collected.
  TcpConnection::ConnStats AggregateConnStats() const;

  // Scaling introspection (bench_c1m, docs/SCALING.md): the flow table, the TCB slab, and the
  // total bytes both reserve.
  const FlowTable& flow_table() const { return conns_; }
  const TcbSlab& tcb_slab() const { return slab_; }
  size_t TcbBytesReserved() const { return slab_.ReservedBytes() + conns_.ReservedBytes(); }

  // DemiSan thread-affinity (docs/STATIC_ANALYSIS.md): tags the flow table and TCB slab with
  // the owning worker thread. Called from Catnip::BindShardAffinity at shard spawn; zero-cost
  // unless built with DEMI_OWNERSHIP_CHECKS.
  void BindShard(int shard_id) {
    conns_.BindShard(shard_id);
    slab_.BindShard(shard_id);
  }
  void UnbindShard() {
    conns_.UnbindShard();
    slab_.UnbindShard();
  }

  // Registers the tcp.* metrics into `registry` and (optionally) attaches a tracer for
  // kRetransmit events; either pointer may be null (docs/OBSERVABILITY.md).
  void SetObservability(MetricsRegistry* registry, Tracer* tracer);

  // Attaches the libOS's tenant table: accept-queue admission (stateful and cookie paths)
  // consults it per SYN, and Accept/teardown release the admission slots. Null (the default)
  // disables tenant admission entirely.
  void SetTenantTable(TenantTable* tenants) { tenants_ = tenants; }

 private:
  friend class TcpConnection;
  friend class TcpListener;

  // Sends one segment whose payload is the concatenation of `payload_slices` (zero-copy
  // gather: header + slices go to the NIC as one TX burst). Empty for control segments.
  // `tenant` is the connection's isolation domain, charged at the TX scheduler.
  [[nodiscard]] Status SendSegment(const TcpHeader& hdr, Ipv4Addr dst,
                     std::span<const std::span<const uint8_t>> payload_slices,
                     TenantId tenant = kDefaultTenant);
  void SendRst(const TcpHeader& in, Ipv4Addr dst);
  // Stateless SYN handling: answer with a cookie SYN-ACK, allocating nothing.
  void SendSynCookieSynAck(const TcpHeader& syn, Ipv4Addr src, uint64_t key, TimeNs now);
  // Tries to interpret a no-connection ACK as a returning SYN cookie; on success the
  // connection is created ESTABLISHED and delivered to the listener. Returns true if the
  // segment was consumed (even if dropped for backlog pressure — no RST for valid cookies).
  bool TryCookieValidate(const TcpHeader& hdr, const Ipv4Header& ip,
                         std::span<const uint8_t> payload, uint64_t key, TimeNs now);
  void TraceRetransmit(uint16_t local_port, SeqNum seq) {
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kRetransmit, local_port, seq.v);
    }
  }
  uint16_t AllocEphemeralPort();
  SeqNum NewIss() { return SeqNum{static_cast<uint32_t>(rng_.Next())}; }

  EthernetLayer& eth_;
  Scheduler& scheduler_;
  PoolAllocator& alloc_;
  Clock& clock_;
  TcpConfig config_;
  Rng rng_;
  SynCookies cookies_;  // secret drawn from rng_ at construction (deterministic per seed)

  TcbSlab slab_;
  FlowTable conns_;
  std::unordered_map<uint16_t, std::unique_ptr<TcpListener>> listeners_;
  uint16_t next_ephemeral_ = 40000;

  // Per-burst ack coalescing: connections whose urgent ack is being held to the end of the
  // current RX burst. Raw pointers are safe: entries are flushed before PollOnce returns and
  // connections are only destroyed by Reap()/teardown, never mid-burst.
  bool in_burst_ = false;
  std::vector<TcpConnection*> pending_ack_conns_;

  Stats stats_;
  TcpConnection::ConnStats reaped_conn_stats_;  // totals of connections already reaped
  Tracer* tracer_ = nullptr;
  TenantTable* tenants_ = nullptr;
};

}  // namespace demi

#endif  // SRC_NET_TCP_TCP_H_
