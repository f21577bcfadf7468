#include "src/net/tcp/tcp.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/observability/metrics.h"

namespace demi {

// A connection object plus its shared_ptr control block must fit one slab slot; the hot line
// is the first 64 bytes, and the remaining members stay small because everything bulky lives
// behind cold_ (docs/SCALING.md §3).
static_assert(sizeof(TcpConnection) <= TcbSlab::kSlotBytes - 64,
              "TcpConnection outgrew its slab slot budget");

// ============================== SegmentPayload ====================================

void SegmentPayload::TrimFront(size_t n) {
  bytes_ -= n;
  size_t keep = 0;
  for (size_t i = 0; i < count_; i++) {
    if (n >= slices_[i].size()) {
      n -= slices_[i].size();
      slices_[i] = Buffer{};  // fully covered: drop the reference (buffer may recycle)
      continue;
    }
    if (n > 0) {
      slices_[i].TrimFront(n);
      n = 0;
    }
    if (keep != i) {
      slices_[keep] = std::move(slices_[i]);
    }
    keep++;
  }
  count_ = keep;
}

// ============================== TcpConnection =====================================

TcpConnection::TcpConnection(TcpStack& stack, SocketAddress local, SocketAddress remote,
                             SeqNum iss)
    : stack_(stack), local_(local), remote_(remote), iss_(iss), rtt_(stack.config()) {
  hot_.snd_una = iss;
  hot_.snd_nxt = iss;
  hot_.mss = static_cast<uint16_t>(stack.DefaultMss());
}

TcpConnection::~TcpConnection() {
  // An application-held connection can outlive the stack; EnterClosed already cancelled the
  // timer then, so only touch the scheduler if it is still armed.
  if (hot_.timer != kInvalidTimerId) {
    ClearTimers();
  }
}

TcpConnection::ColdState& TcpConnection::EnsureCold() {
  if (cold_ == nullptr) {
    cold_ = std::make_unique<ColdState>();
    cold_->cc = CongestionControl::Create(stack_.config().congestion, hot_.mss,
                                          stack_.config().fixed_window_bytes);
  }
  return *cold_;
}

const TcpConnection::ConnStats& TcpConnection::conn_stats() const {
  static const ConnStats kZero{};
  return cold_ == nullptr ? kZero : cold_->stats;
}

uint64_t TcpConnection::FlowKey() const {
  return FlowTable::MakeKey(remote_.ip.value, remote_.port, local_.port);
}

size_t TcpConnection::EffectiveSendWindow() const {
  if (cold_ == nullptr) {
    return 0;
  }
  const size_t wnd = std::min<size_t>(cold_->cc->cwnd(), hot_.snd_wnd);
  return wnd > cold_->bytes_inflight ? wnd - cold_->bytes_inflight : 0;
}

size_t TcpConnection::ReceiveCapacityLeft() const {
  const size_t used = cold_ == nullptr ? 0 : cold_->ready_bytes + cold_->reassembly_bytes;
  const size_t cap = stack_.config().recv_buffer_bytes;
  return used >= cap ? 0 : cap - used;
}

uint16_t TcpConnection::AdvertisedWindow() const {
  const size_t wnd = ReceiveCapacityLeft() >> hot_.rcv_wscale;
  return static_cast<uint16_t>(std::min<size_t>(wnd, 0xFFFF));
}

// --- Timer plumbing -------------------------------------------------------------
//
// The callback runs inside Scheduler::Poll, from the wheel it advanced to the poll's time:
// that time is the `now` it runs on.

void TcpConnection::TimerCb(void* ctx, uint64_t /*arg*/) {
  auto* conn = static_cast<TcpConnection*>(ctx);
  conn->hot_.timer = kInvalidTimerId;  // this entry just fired
  conn->OnTimer(conn->stack_.scheduler().poll_time());
}

void TcpConnection::NoteDeadline(TimeNs deadline) {
  if (hot_.timer != kInvalidTimerId) {
    if (deadline >= hot_.timer_at) {
      return;  // the armed entry fires first and re-arms for this one
    }
    stack_.scheduler().CancelTimer(hot_.timer);
  } else if (deadline == kNoDeadline) {
    return;
  }
  hot_.timer = stack_.scheduler().ArmTimer(deadline, &TimerCb, this, 0);
  hot_.timer_at = deadline;
}

TimeNs TcpConnection::RetxDeadline() const {
  return hot_.state != TcpState::kClosed && cold_ != nullptr && !cold_->inflight.empty()
             ? cold_->inflight.front().rto_deadline
             : kNoDeadline;
}

TimeNs TcpConnection::RetxWake(TimeNs now) const {
  const TimeNs retx = RetxDeadline();
  // On a us-RTT path the RTO is min_rto, two delayed-ack timeouts, and the peer's reply lands
  // long before it; the reply's delayed ack, due one timeout later, would be an earlier
  // deadline and cost a cancel and a re-arm. Waking one timeout from now makes it a store. A
  // backed-off RTO further away is armed as is: the early wake costs at most one extra fire.
  if (retx - now <= 2 * kTcpDelayedAckTimeout) {
    return std::min(retx, now + kTcpDelayedAckTimeout);
  }
  return retx;
}

TimeNs TcpConnection::StateDeadline() const {
  return hot_.state_timer_kind != StateTimerKind::kNone ? state_deadline_ : kNoDeadline;
}

void TcpConnection::SetStateDeadline(StateTimerKind kind, TimeNs deadline) {
  hot_.state_timer_kind = kind;
  state_deadline_ = deadline;
  NoteDeadline(deadline);
}

void TcpConnection::ClearTimers() {
  hot_.ack_deadline = kNoDeadline;
  hot_.state_timer_kind = StateTimerKind::kNone;
  if (hot_.timer != kInvalidTimerId) {
    stack_.scheduler().CancelTimer(hot_.timer);
    hot_.timer = kInvalidTimerId;
  }
}

void TcpConnection::OnTimer(TimeNs now) {
  // Retransmit first: the segment carries any pending ack, which then need not go alone.
  if (RetxDeadline() <= now) {
    OnRetxTimer(now);
  }
  if (hot_.ack_deadline <= now) {
    hot_.ack_deadline = kNoDeadline;
    OnAckTimer(now);
  }
  if (StateDeadline() <= now) {
    OnStateTimer(now);
  }
  NoteDeadline(std::min({RetxWake(now), hot_.ack_deadline, StateDeadline()}));
}

void TcpConnection::MaybeArmPersist(TimeNs now) {
  const bool data_state =
      hot_.state == TcpState::kEstablished || hot_.state == TcpState::kCloseWait ||
      hot_.state == TcpState::kFinWait1 || hot_.state == TcpState::kLastAck ||
      hot_.state == TcpState::kClosing;
  const bool need = data_state && cold_ != nullptr && !cold_->unsent.empty() &&
                    hot_.snd_wnd == 0 && cold_->bytes_inflight == 0;
  if (need) {
    if (hot_.state_timer_kind != StateTimerKind::kPersist) {
      // Zero-window persist (RFC 1122 4.2.2.17): wait an RTO, then force a 1-byte probe.
      SetStateDeadline(StateTimerKind::kPersist, now + rtt_.rto());
    }
  } else if (hot_.state_timer_kind == StateTimerKind::kPersist) {
    hot_.state_timer_kind = StateTimerKind::kNone;
  }
}

void TcpConnection::OnRetxTimer(TimeNs now) {
  InflightSegment& front = cold_->inflight.front();
  // RTO fired. A zero-window stall is a *persist* situation, not a dead peer: keep probing
  // without counting toward the abort limit (RFC 1122 4.2.2.17 — the connection stays open
  // as long as the receiver keeps acking).
  if (hot_.snd_wnd != 0) {
    if (hot_.consecutive_retx < 255) {
      hot_.consecutive_retx++;
    }
    if (hot_.consecutive_retx > stack_.config().max_retransmits) {
      // Established-connection give-up: the abort status (not a connect timeout) reaches every
      // waiter — pending pops complete with it and subsequent pushes return it.
      EnterClosed(Status::kConnectionAborted);
      return;
    }
  }
  front.retransmitted = true;
  rtt_.Backoff();
  SendDataSegment(front, now);  // also refreshes rto_deadline via current rto
  cold_->stats.retransmits++;
  stack_.TraceRetransmit(local_.port, front.seq);
  cold_->cc->OnTimeout(now);
}

void TcpConnection::OnAckTimer(TimeNs now) {
  if (hot_.state == TcpState::kClosed || !hot_.ack_needed) {
    return;  // piggybacked away or the connection died; nothing to do
  }
  if (cold_ != nullptr && !hot_.ack_immediate && stack_.config().delayed_acks) {
    cold_->stats.delayed_acks++;  // held to the timer; no data segment piggybacked it
  }
  SendPureAck(now);
}

void TcpConnection::OnStateTimer(TimeNs now) {
  const StateTimerKind kind = hot_.state_timer_kind;
  hot_.state_timer_kind = StateTimerKind::kNone;
  const TcpConfig& cfg = stack_.config();
  switch (kind) {
    case StateTimerKind::kConnectRetry: {
      if (hot_.state != TcpState::kSynSent) {
        return;
      }
      hot_.hs_attempts++;
      if (hot_.hs_attempts > kTcpMaxSynRetries) {
        EnterClosed(Status::kTimedOut);
        return;
      }
      if (SendControl(TcpFlags{.syn = true}, iss_, /*with_options=*/true, now) != Status::kOk) {
        stack_.CountTxError();
      }
      if (cold_ != nullptr) {
        cold_->stats.retransmits++;
      }
      stack_.TraceRetransmit(local_.port, iss_);
      const unsigned shift = std::min<unsigned>(hot_.hs_attempts, 16);
      SetStateDeadline(StateTimerKind::kConnectRetry, now + (cfg.initial_rto << shift));
      return;
    }
    case StateTimerKind::kSynAckRetry: {
      if (hot_.state != TcpState::kSynReceived) {
        return;
      }
      hot_.hs_attempts++;
      if (hot_.hs_attempts > kTcpMaxSynRetries) {
        EnterClosed(Status::kTimedOut);
        return;
      }
      if (SendControl(TcpFlags{.syn = true, .ack = true}, iss_, /*with_options=*/true, now) !=
          Status::kOk) {
        stack_.CountTxError();
      }
      if (cold_ != nullptr) {
        cold_->stats.retransmits++;
      }
      stack_.TraceRetransmit(local_.port, iss_);
      const unsigned shift = std::min<unsigned>(hot_.hs_attempts, 16);
      SetStateDeadline(StateTimerKind::kSynAckRetry, now + (cfg.initial_rto << shift));
      return;
    }
    case StateTimerKind::kPersist: {
      if (hot_.state == TcpState::kClosed || cold_ == nullptr) {
        return;
      }
      if (!cold_->unsent.empty() && hot_.snd_wnd == 0 && cold_->bytes_inflight == 0) {
        // Force a 1-byte probe through the closed window; once inflight, the normal RTO path
        // (exempt from the abort count while snd_wnd == 0) sustains the probing.
        Buffer& front = cold_->unsent.front();
        InflightSegment seg;
        seg.seq = hot_.snd_nxt;
        seg.data.Append(front.Slice(0, 1));
        front.TrimFront(1);
        if (front.empty()) {
          cold_->unsent.pop_front();
        }
        cold_->unsent_bytes -= 1;
        hot_.snd_nxt = hot_.snd_nxt + 1;
        cold_->bytes_inflight += 1;
        SendDataSegment(seg, now);
        cold_->inflight.push_back(std::move(seg));
        NoteDeadline(RetxWake(now));
      }
      return;
    }
    case StateTimerKind::kTimeWait: {
      if (hot_.state == TcpState::kTimeWait) {
        EnterClosed(Status::kOk);
      }
      return;
    }
    case StateTimerKind::kNone:
      return;
  }
}

// --- Application-facing ----------------------------------------------------------

Status TcpConnection::Push(Buffer data) {
  if (error_ != Status::kOk) {
    return error_;
  }
  if (hot_.fin_queued) {
    return Status::kInvalidArgument;  // already closed for sending
  }
  if (hot_.state != TcpState::kEstablished && hot_.state != TcpState::kCloseWait) {
    return Status::kNotConnected;
  }
  if (data.empty()) {
    return Status::kOk;
  }
  // Registers the underlying superblock with the device on first use (get_rkey path) so the
  // zero-copy TX below passes the NIC's DMA check.
  if (data.size() >= PoolAllocator::kZeroCopyThreshold) {
    data.Rkey();
  }
  ColdState& c = EnsureCold();
  c.unsent_bytes += data.size();
  c.unsent.push_back(std::move(data));
  // Fast path: transmit inline, run-to-completion (§5.2). Window-blocked leftovers drain from
  // ProcessAck (new ack / window update) or the persist probe. An app call runs between polls,
  // so it reads the clock once here; every segment it sends is stamped with that time.
  const TimeNs now = stack_.clock().Now();
  TrySend(now);
  MaybeArmPersist(now);
  return Status::kOk;
}

std::optional<Buffer> TcpConnection::PopData() {
  if (cold_ == nullptr || cold_->ready.empty()) {
    return std::nullopt;
  }
  const bool window_was_closed = ReceiveCapacityLeft() == 0;
  Buffer b = std::move(cold_->ready.front());
  cold_->ready.pop_front();
  cold_->ready_bytes -= b.size();
  // The receive window just opened; advertise it — urgently if it had slammed shut (the peer
  // may be persist-probing against a zero window), lazily otherwise (the next data segment or
  // delayed ack carries the update). A pop reads no clock: it runs in the fast path's serve
  // loop or in the app between polls, so the poll's time is at most one poll old and a delayed
  // ack armed here may go out up to one poll early, which RFC 1122 allows.
  const TimeNs now = stack_.scheduler().poll_time();
  if (window_was_closed) {
    ScheduleAck(now);
  } else {
    ScheduleDelayedAck(now);
  }
  return b;
}

Status TcpConnection::Close() {
  switch (hot_.state) {
    case TcpState::kSynSent:
    case TcpState::kSynReceived:
      EnterClosed(Status::kOk);
      return Status::kOk;
    case TcpState::kEstablished:
      hot_.state = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      hot_.state = TcpState::kLastAck;
      break;
    case TcpState::kClosed:
      return Status::kOk;
    default:
      return Status::kOk;  // close already in progress
  }
  hot_.fin_queued = true;
  EnsureCold();  // the FIN needs an inflight slot
  const TimeNs now = stack_.clock().Now();
  TrySend(now);
  MaybeArmPersist(now);
  return Status::kOk;
}

void TcpConnection::Abort() {
  if (hot_.state != TcpState::kClosed) {
    TcpHeader rst;
    rst.src_port = local_.port;
    rst.dst_port = remote_.port;
    rst.seq = hot_.snd_nxt.v;
    rst.flags.rst = true;
    rst.flags.ack = true;
    rst.ack = hot_.rcv_nxt.v;
    if (stack_.SendSegment(rst, remote_.ip, {}, tenant_) != Status::kOk) {
      stack_.CountTxError();  // peer will see the abort via RTO instead
    }
    EnterClosed(Status::kConnectionAborted);
  }
}

// --- Open paths ------------------------------------------------------------------

void TcpConnection::StartActiveOpen(TimeNs now) {
  EnsureCold();
  hot_.state = TcpState::kSynSent;
  hot_.snd_nxt = iss_ + 1;  // SYN consumes one sequence number
  hot_.rcv_wscale = stack_.config().window_scale;
  if (SendControl(TcpFlags{.syn = true}, iss_, /*with_options=*/true, now) != Status::kOk) {
    stack_.CountTxError();  // the retry timer below resends the SYN
  }
  hot_.hs_attempts = 0;
  SetStateDeadline(StateTimerKind::kConnectRetry, now + stack_.config().initial_rto);
}

void TcpConnection::StartPassiveOpen(const TcpHeader& syn, TcpListener* listener, TimeNs now) {
  EnsureCold();
  hot_.state = TcpState::kSynReceived;
  pending_listener_ = listener;
  tenant_ = listener->tenant();
  listener->syn_rcvd_count_++;
  irs_ = SeqNum{syn.seq};
  hot_.rcv_nxt = irs_ + 1;
  hot_.snd_nxt = iss_ + 1;
  if (syn.mss_option) {
    hot_.mss = static_cast<uint16_t>(std::min<size_t>(hot_.mss, *syn.mss_option));
  }
  if (syn.window_scale_option) {
    hot_.snd_wscale = *syn.window_scale_option;
    hot_.rcv_wscale = stack_.config().window_scale;
  }
  if (syn.timestamps_option && stack_.config().timestamps) {
    hot_.ts_enabled = true;
    hot_.ts_recent = syn.timestamps_option->tsval;
    hot_.ts_recent_valid = true;
  }
  hot_.snd_wnd = syn.window;  // SYN windows are never scaled
  if (SendControl(TcpFlags{.syn = true, .ack = true}, iss_, /*with_options=*/true, now) !=
      Status::kOk) {
    stack_.CountTxError();  // the retry timer below resends the SYN-ACK
  }
  hot_.hs_attempts = 0;
  SetStateDeadline(StateTimerKind::kSynAckRetry, now + stack_.config().initial_rto);
}

void TcpConnection::CompleteCookieOpen(const TcpHeader& ack, const SynCookies::SynOptions& opts) {
  hot_.state = TcpState::kEstablished;
  hot_.snd_una = iss_ + 1;  // iss_ is the cookie; the SYN-ACK consumed one sequence number
  hot_.snd_nxt = iss_ + 1;
  irs_ = SeqNum{ack.seq} - 1;
  hot_.rcv_nxt = SeqNum{ack.seq};
  hot_.mss = static_cast<uint16_t>(
      std::min<uint32_t>(opts.mss, static_cast<uint32_t>(stack_.DefaultMss())));
  if (opts.peer_wscale != SynCookies::kNoWscale) {
    hot_.snd_wscale = opts.peer_wscale;
    hot_.rcv_wscale = stack_.config().window_scale;
  }
  hot_.snd_wnd = static_cast<uint32_t>(ack.window) << hot_.snd_wscale;
  if (opts.timestamps && stack_.config().timestamps) {
    hot_.ts_enabled = true;
    if (ack.timestamps_option) {
      hot_.ts_recent = ack.timestamps_option->tsval;
      hot_.ts_recent_valid = true;
    }
  }
  // Deliberately hot-only: no cold state, no timers. Everything else materializes on first
  // data (ProcessData/Push) — a floods-worth of idle accepted connections stays at one slab
  // slot plus one flow-table entry each.
}

// --- Segment TX ------------------------------------------------------------------

void TcpConnection::StampTimestamps(TcpHeader* hdr, TimeNs now) const {
  if (hot_.ts_enabled) {
    hdr->timestamps_option =
        TcpHeader::Timestamps{Tsval(now), hot_.ts_recent_valid ? hot_.ts_recent : 0};
  }
}

Status TcpConnection::SendControl(TcpFlags flags, SeqNum seq, bool with_options, TimeNs now) {
  TcpHeader hdr;
  hdr.src_port = local_.port;
  hdr.dst_port = remote_.port;
  hdr.seq = seq.v;
  hdr.flags = flags;
  if (flags.ack) {
    hdr.ack = hot_.rcv_nxt.v;
  }
  if (flags.syn) {
    hdr.window = static_cast<uint16_t>(
        std::min<size_t>(ReceiveCapacityLeft(), 0xFFFF));  // unscaled on SYN
  } else {
    hdr.window = AdvertisedWindow();
  }
  if (with_options) {
    hdr.mss_option = static_cast<uint16_t>(stack_.DefaultMss());
    hdr.window_scale_option = stack_.config().window_scale;
    if (stack_.config().timestamps) {
      // Offer (or confirm) RFC 7323 timestamps on the SYN/SYN-ACK.
      hdr.timestamps_option = TcpHeader::Timestamps{Tsval(now), hot_.ts_recent};
    }
  } else {
    StampTimestamps(&hdr, now);
  }
  return stack_.SendSegment(hdr, remote_.ip, {}, tenant_);
}

void TcpConnection::SendDataSegment(InflightSegment& seg, TimeNs now) {
  TcpHeader hdr;
  hdr.src_port = local_.port;
  hdr.dst_port = remote_.port;
  hdr.seq = seg.seq.v;
  hdr.ack = hot_.rcv_nxt.v;
  hdr.flags.ack = true;
  hdr.flags.psh = !seg.data.empty();
  hdr.flags.fin = seg.fin;
  hdr.window = AdvertisedWindow();
  StampTimestamps(&hdr, now);
  std::span<const uint8_t> slices[SegmentPayload::kMaxSlices];
  const size_t nslices = seg.data.Gather(slices);
  if (stack_.SendSegment(hdr, remote_.ip, {slices, nslices}, tenant_) != Status::kOk) {
    stack_.CountTxError();  // segment stays inflight; the RTO path retransmits it
  }
  seg.sent_at = now;
  seg.rto_deadline = now + rtt_.rto();
  if (cold_ != nullptr) {
    cold_->stats.segments_sent++;
    cold_->stats.bytes_sent += seg.data.size();
  }
  // This segment carried the ack: drop any pending pure-ack obligation (piggybacking).
  hot_.ack_needed = false;
  hot_.ack_immediate = false;
  hot_.full_segs_since_ack = 0;
  hot_.ack_deadline = kNoDeadline;
}

void TcpConnection::TrySend(TimeNs now) {
  if (hot_.state != TcpState::kEstablished && hot_.state != TcpState::kCloseWait &&
      hot_.state != TcpState::kFinWait1 && hot_.state != TcpState::kLastAck &&
      hot_.state != TcpState::kClosing) {
    return;
  }
  if (cold_ == nullptr) {
    return;  // nothing queued: hot-only connections have nothing to send
  }
  ColdState& c = *cold_;
  const bool coalesce = stack_.config().coalesce_segments;
  bool sent_any = false;
  while (!c.unsent.empty()) {
    const size_t window = EffectiveSendWindow();
    if (window == 0) {
      break;
    }
    const size_t budget = std::min(EffectiveMss(), window);
    InflightSegment seg;
    seg.seq = hot_.snd_nxt;
    size_t filled = 0;
    // Gather queued buffers (or leading slices of them) until the segment fills to MSS/window
    // or runs out of gather slots; with coalescing off, one Push buffer per segment.
    while (!c.unsent.empty() && filled < budget && !seg.data.full()) {
      Buffer& front = c.unsent.front();
      const size_t take = std::min(front.size(), budget - filled);
      if (take == front.size()) {
        // Whole buffer fits in this segment: move it, avoiding a second reference (which
        // would spill into the allocator's overflow table).
        seg.data.Append(std::move(front));
        c.unsent.pop_front();
      } else {
        seg.data.Append(front.Slice(0, take));
        front.TrimFront(take);
      }
      filled += take;
      if (!coalesce) {
        break;
      }
    }
    c.unsent_bytes -= filled;
    hot_.snd_nxt = hot_.snd_nxt + static_cast<uint32_t>(filled);
    c.bytes_inflight += filled;
    if (seg.data.num_slices() > 1) {
      c.stats.coalesced_segments++;
    }
    SendDataSegment(seg, now);
    c.inflight.push_back(std::move(seg));
    sent_any = true;
  }
  // FIN rides after all data has been carved into segments.
  if (hot_.fin_queued && !hot_.fin_sent && c.unsent.empty()) {
    InflightSegment seg;
    seg.seq = hot_.snd_nxt;
    seg.fin = true;
    fin_seq_ = hot_.snd_nxt;
    hot_.fin_sent = true;
    hot_.snd_nxt = hot_.snd_nxt + 1;
    SendDataSegment(seg, now);
    c.inflight.push_back(std::move(seg));
    sent_any = true;
  }
  if (sent_any) {
    NoteDeadline(RetxWake(now));
  }
}

// --- Ack scheduling --------------------------------------------------------------

void TcpConnection::ScheduleAck(TimeNs now) {
  if (hot_.ack_needed && hot_.ack_immediate) {
    return;  // already scheduled urgently
  }
  // Newly needed, or escalating an armed delayed ack.
  hot_.ack_needed = true;
  hot_.ack_immediate = true;
  hot_.ack_deadline = kNoDeadline;
  if (stack_.in_burst_) {
    // Coalesce within the RX burst: one pure ack per connection at burst end, however many
    // segments this burst delivered.
    if (!hot_.ack_pending_listed) {
      hot_.ack_pending_listed = true;
      stack_.pending_ack_conns_.push_back(this);
    }
  } else {
    // Outside a burst (application-side window updates): a past deadline fires on the next
    // poll, batching repeated schedules from the same poll round into one ack.
    hot_.ack_deadline = now;
    NoteDeadline(now);
  }
}

void TcpConnection::ScheduleDelayedAck(TimeNs now) {
  if (!stack_.config().delayed_acks) {
    ScheduleAck(now);  // ablation: ack every segment
    return;
  }
  if (hot_.ack_needed) {
    return;  // already armed (or urgent); never push an armed deadline back (RFC 1122)
  }
  hot_.ack_needed = true;
  hot_.ack_immediate = false;
  hot_.ack_deadline = now + kTcpDelayedAckTimeout;
  NoteDeadline(hot_.ack_deadline);
}

void TcpConnection::SendPureAck(TimeNs now) {
  hot_.ack_needed = false;
  hot_.ack_immediate = false;
  hot_.full_segs_since_ack = 0;
  hot_.ack_deadline = kNoDeadline;
  if (SendControl(TcpFlags{.ack = true}, hot_.snd_nxt, /*with_options=*/false, now) !=
      Status::kOk) {
    stack_.CountTxError();  // a lost pure ack is recovered by the peer's retransmit
  }
}

// --- Segment RX ------------------------------------------------------------------

void TcpConnection::OnSegment(const TcpHeader& hdr, std::span<const uint8_t> payload,
                              TimeNs now) {
  if (!payload.empty() || hdr.flags.fin) {
    EnsureCold();  // data (or a FIN's state machinery) needs the cold half
  }
  if (cold_ != nullptr) {
    cold_->stats.segments_received++;
    cold_->stats.bytes_received += payload.size();
  }

  if (hdr.flags.rst) {
    if (hot_.state == TcpState::kSynSent) {
      EnterClosed(Status::kConnectionRefused);
    } else if (hot_.state != TcpState::kClosed) {
      EnterClosed(Status::kConnectionReset);
    }
    return;
  }

  switch (hot_.state) {
    case TcpState::kSynSent: {
      if (!hdr.flags.syn || !hdr.flags.ack) {
        return;  // simultaneous open unsupported; ignore
      }
      if (SeqNum{hdr.ack} != iss_ + 1) {
        return;  // bogus ack of our SYN
      }
      irs_ = SeqNum{hdr.seq};
      hot_.rcv_nxt = irs_ + 1;
      hot_.snd_una = SeqNum{hdr.ack};
      if (hdr.mss_option) {
        hot_.mss = static_cast<uint16_t>(std::min<size_t>(hot_.mss, *hdr.mss_option));
      }
      if (hdr.window_scale_option) {
        hot_.snd_wscale = *hdr.window_scale_option;
      } else {
        hot_.rcv_wscale = 0;  // peer doesn't scale; neither do we
      }
      if (hdr.timestamps_option && stack_.config().timestamps) {
        hot_.ts_enabled = true;
        hot_.ts_recent = hdr.timestamps_option->tsval;
        hot_.ts_recent_valid = true;
      }
      hot_.snd_wnd = hdr.window;  // unscaled on SYN
      hot_.state = TcpState::kEstablished;
      hot_.state_timer_kind = StateTimerKind::kNone;  // connect-retry no longer needed
      if (SendControl(TcpFlags{.ack = true}, hot_.snd_nxt, /*with_options=*/false, now) !=
          Status::kOk) {
        stack_.CountTxError();  // peer's SYN-ACK retransmit re-triggers this ack
      }
      EnsureCold().established.Notify();
      return;
    }
    case TcpState::kSynReceived: {
      if (hdr.flags.syn) {
        // Duplicate SYN: our SYN-ACK may have been lost; the retry timer resends it.
        return;
      }
      if (!hdr.flags.ack || SeqNum{hdr.ack} != iss_ + 1) {
        return;
      }
      hot_.snd_una = SeqNum{hdr.ack};
      hot_.snd_wnd = static_cast<uint32_t>(hdr.window) << hot_.snd_wscale;
      hot_.state = TcpState::kEstablished;
      hot_.state_timer_kind = StateTimerKind::kNone;  // SYN-ACK retry no longer needed
      EnsureCold().established.Notify();
      if (pending_listener_ != nullptr) {
        TcpListener* l = pending_listener_;
        pending_listener_ = nullptr;
        l->syn_rcvd_count_--;
        auto self = stack_.conns_.FindShared(FlowKey());
        DEMI_CHECK(self != nullptr);
        l->ready_.push_back(std::move(self));
        l->acceptable_.Notify();
      }
      // Fall through to process any piggybacked payload.
      break;
    }
    case TcpState::kClosed:
      return;
    default:
      break;
  }
  if (hdr.flags.syn) {
    // A SYN in a synchronized state, such as a SYN-ACK retransmitted because our handshake ACK
    // was lost: re-ack it (RFC 793 §3.9), or a peer waiting for that ACK times out.
    ScheduleAck(now);
    return;
  }

  if (hot_.ts_enabled && hdr.timestamps_option) {
    // PAWS (RFC 7323 §5): reject segments whose timestamp regressed strictly before ts_recent
    // (wrapping compare), unless they are bare acks for new data.
    const uint32_t tsval = hdr.timestamps_option->tsval;
    if (hot_.ts_recent_valid && static_cast<int32_t>(tsval - hot_.ts_recent) < 0) {
      if (cold_ != nullptr) {
        cold_->stats.paws_drops++;
      }
      ScheduleAck(now);  // duplicate-looking segment: re-ack so the peer resynchronizes
      return;
    }
    // Update ts_recent when the segment covers rcv_nxt (RFC 7323 §4.3's simplified rule).
    if (SeqNum{hdr.seq} <= hot_.rcv_nxt) {
      hot_.ts_recent = tsval;
      hot_.ts_recent_valid = true;
    }
  }

  if (hdr.flags.ack) {
    ProcessAck(hdr, now);
  }
  if (!payload.empty() || hdr.flags.fin) {
    ProcessData(hdr, payload, now);
  }
}

void TcpConnection::ProcessAck(const TcpHeader& hdr, TimeNs now) {
  // demilint: fastpath
  const SeqNum ack{hdr.ack};
  const auto new_wnd = static_cast<uint32_t>(static_cast<size_t>(hdr.window) << hot_.snd_wscale);
  const bool window_grew = new_wnd > hot_.snd_wnd;
  hot_.snd_wnd = new_wnd;

  if (ack > hot_.snd_nxt) {
    return;  // acks data we never sent; ignore
  }
  bool acked_new = false;
  if (ack > hot_.snd_una && cold_ != nullptr) {
    ColdState& c = *cold_;
    acked_new = true;
    const auto newly_acked = static_cast<size_t>(ack - hot_.snd_una);
    bool sampled = false;
    if (hot_.ts_enabled && hdr.timestamps_option && hdr.timestamps_option->tsecr != 0) {
      // RTTM: tsecr echoes our clock at transmit time, valid even across retransmissions.
      const uint32_t echoed = hdr.timestamps_option->tsecr;
      const uint32_t delta_us = Tsval(now) - echoed;
      if (delta_us < 60u * 1000u * 1000u) {  // sanity: ignore >60 s (wrap artifacts)
        rtt_.OnSample(static_cast<DurationNs>(delta_us) * 1000);
        c.stats.ts_rtt_samples++;
        sampled = true;  // prefer the timestamp sample over the per-segment timer
      }
    }
    // Karn's algorithm (RFC 6298 §3): if the cumulative ack covers ANY retransmitted segment,
    // the ack's timing is driven by the retransmission and every per-segment timer in the
    // range is ambiguous — take no timer sample at all. (A lost first segment held later ones
    // in the peer's reassembly queue; the cumulative ack releasing them measures the RTO, not
    // the path RTT.) Timestamp RTTM above is retransmission-safe and exempt.
    bool ack_covers_retx = false;
    for (const InflightSegment& seg : c.inflight) {
      const uint32_t seg_len = static_cast<uint32_t>(seg.data.size()) + (seg.fin ? 1 : 0);
      if (ack < seg.seq + seg_len) {
        break;  // past the fully-covered prefix
      }
      if (seg.retransmitted) {
        ack_covers_retx = true;
        break;
      }
    }
    while (!c.inflight.empty()) {
      InflightSegment& seg = c.inflight.front();
      const uint32_t seg_len = static_cast<uint32_t>(seg.data.size()) + (seg.fin ? 1 : 0);
      if (ack >= seg.seq + seg_len) {
        if (!seg.retransmitted && !ack_covers_retx && !sampled) {
          rtt_.OnSample(now - seg.sent_at);
          sampled = true;
        }
        c.bytes_inflight -= seg.data.size();
        c.inflight.pop_front();  // drops the libOS reference: UAF-protected buffer may recycle
      } else if (ack > seg.seq) {
        const auto covered = static_cast<uint32_t>(ack - seg.seq);
        seg.data.TrimFront(covered);
        seg.seq = ack;
        c.bytes_inflight -= covered;
        break;
      } else {
        break;
      }
    }
    hot_.snd_una = ack;
    hot_.dup_acks = 0;
    hot_.consecutive_retx = 0;
    c.cc->OnAck(newly_acked, now);
    if (hot_.fin_sent && !hot_.our_fin_acked && ack >= fin_seq_ + 1) {
      hot_.our_fin_acked = true;
      OnOurFinAcked(now);
    }
    NoteDeadline(RetxWake(now));
  } else if (ack == hot_.snd_una && cold_ != nullptr && !cold_->inflight.empty() &&
             !hdr.flags.syn && !hdr.flags.fin) {
    cold_->stats.dup_acks_seen++;
    if (++hot_.dup_acks == 3) {
      // Fast retransmit.
      InflightSegment& seg = cold_->inflight.front();
      seg.retransmitted = true;
      SendDataSegment(seg, now);
      cold_->stats.fast_retransmits++;
      stack_.TraceRetransmit(local_.port, seg.seq);
      cold_->cc->OnFastRetransmit(now);
      hot_.dup_acks = 0;
      NoteDeadline(RetxWake(now));
    }
  } else if (ack > hot_.snd_una) {
    hot_.snd_una = ack;  // hot-only connection (nothing inflight to reconcile)
  }
  if (acked_new || window_grew) {
    // The window opened or freed: drain queued data now and re-evaluate the zero-window
    // persist timer.
    TrySend(now);
    MaybeArmPersist(now);
  }
  // demilint: end-fastpath
}

void TcpConnection::ProcessData(const TcpHeader& hdr, std::span<const uint8_t> payload,
                                TimeNs now) {
  ColdState& c = EnsureCold();
  SeqNum seq{hdr.seq};

  // Ack policy (RFC 1122 4.2.3.2, RFC 5681 §4.2): in-order sub-threshold data may ride a
  // delayed ack; everything ambiguous or urgent — duplicates (the peer is retransmitting),
  // out-of-order arrivals (dup-ack drives fast retransmit), gap fills, FIN advancement, and
  // every kTcpAckEverySegments-th full-sized segment — acks immediately.
  bool immediate = false;

  if (hdr.flags.fin) {
    const SeqNum fin_at = seq + static_cast<uint32_t>(payload.size());
    if (!hot_.remote_fin_seen) {
      hot_.remote_fin_seen = true;
      remote_fin_seq_ = fin_at;
    }
  }

  if (!payload.empty()) {
    // Left-trim data we already have.
    if (seq < hot_.rcv_nxt) {
      immediate = true;  // duplicate bytes: re-ack now so the retransmitting peer resyncs
      const auto overlap = static_cast<uint32_t>(hot_.rcv_nxt - seq);
      if (overlap >= payload.size()) {
        payload = {};
      } else {
        payload = payload.subspan(overlap);
        seq = hot_.rcv_nxt;
      }
    }
  }

  if (!payload.empty()) {
    if (payload.size() > ReceiveCapacityLeft()) {
      // Receiver overrun: drop; the ack (without window) makes the sender back off.
      ScheduleAck(now);
      return;
    }
    if (seq == hot_.rcv_nxt) {
      Buffer buf = Buffer::TryAllocate(stack_.allocator(), payload.size(), tenant_);
      if (!buf.valid()) {
        // Heap exhausted: drop without advancing rcv_nxt; the un-acked sender retransmits.
        stack_.CountRxAllocDrop();
        ScheduleAck(now);
        return;
      }
      std::memcpy(buf.mutable_data(), payload.data(), payload.size());
      hot_.rcv_nxt = hot_.rcv_nxt + static_cast<uint32_t>(payload.size());
      c.ready_bytes += buf.size();
      c.ready.push_back(std::move(buf));
      const SeqNum before_drain = hot_.rcv_nxt;
      DrainReassembly();
      if (hot_.rcv_nxt != before_drain) {
        immediate = true;  // this segment filled a gap: ack the whole advance right away
      }
      if (payload.size() >= EffectiveMss()) {
        if (hot_.full_segs_since_ack < 255) {
          hot_.full_segs_since_ack++;
        }
        if (hot_.full_segs_since_ack >= kTcpAckEverySegments) {
          immediate = true;
        }
      }
      c.readable.Notify();
    } else if (seq > hot_.rcv_nxt) {
      // Out of order: stash for reassembly (dedup by start seq; overlaps resolved on drain).
      c.stats.out_of_order++;
      immediate = true;  // dup-ack immediately so the peer's fast retransmit can trigger
      if (c.reassembly.find(seq.v) == c.reassembly.end()) {
        Buffer buf = Buffer::TryAllocate(stack_.allocator(), payload.size(), tenant_);
        if (!buf.valid()) {
          // The reassembly stash is an optimization; dropping only costs a retransmit later.
          stack_.CountRxAllocDrop();
        } else {
          std::memcpy(buf.mutable_data(), payload.data(), payload.size());
          c.reassembly_bytes += buf.size();
          c.reassembly.emplace(seq.v, std::move(buf));
        }
      }
    }
  }

  // A FIN becomes "received" only once all data before it is in order.
  if (hot_.remote_fin_seen && !hot_.remote_fin_received && hot_.rcv_nxt == remote_fin_seq_) {
    hot_.rcv_nxt = hot_.rcv_nxt + 1;
    hot_.remote_fin_received = true;
    immediate = true;  // don't hold the peer's close on a delay timer
    HandleFinReached(now);
    c.readable.Notify();
  } else if (hot_.remote_fin_seen && !hot_.remote_fin_received) {
    immediate = true;  // FIN past a gap: keep dup-acking until the hole fills
  }

  if (immediate) {
    ScheduleAck(now);
  } else {
    ScheduleDelayedAck(now);
  }
}

void TcpConnection::DrainReassembly() {
  ColdState& c = *cold_;
  while (!c.reassembly.empty()) {
    auto it = c.reassembly.begin();
    SeqNum seq{it->first};
    if (seq > hot_.rcv_nxt) {
      break;
    }
    Buffer buf = std::move(it->second);
    c.reassembly_bytes -= buf.size();
    c.reassembly.erase(it);
    if (seq < hot_.rcv_nxt) {
      const auto overlap = static_cast<uint32_t>(hot_.rcv_nxt - seq);
      if (overlap >= buf.size()) {
        continue;  // fully duplicate
      }
      buf.TrimFront(overlap);
    }
    hot_.rcv_nxt = hot_.rcv_nxt + static_cast<uint32_t>(buf.size());
    c.ready_bytes += buf.size();
    c.ready.push_back(std::move(buf));
  }
}

void TcpConnection::HandleFinReached(TimeNs now) {
  switch (hot_.state) {
    case TcpState::kEstablished:
      hot_.state = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      if (hot_.our_fin_acked) {
        EnterTimeWait(now);
      } else {
        hot_.state = TcpState::kClosing;
      }
      break;
    case TcpState::kFinWait2:
      EnterTimeWait(now);
      break;
    default:
      break;
  }
}

void TcpConnection::OnOurFinAcked(TimeNs now) {
  switch (hot_.state) {
    case TcpState::kFinWait1:
      hot_.state = TcpState::kFinWait2;
      break;
    case TcpState::kClosing:
      EnterTimeWait(now);
      break;
    case TcpState::kLastAck:
      EnterClosed(Status::kOk);
      break;
    default:
      break;
  }
}

void TcpConnection::EnterTimeWait(TimeNs now) {
  hot_.state = TcpState::kTimeWait;
  SetStateDeadline(StateTimerKind::kTimeWait, now + kTcpTimeWait);  // replaces any persist
}

void TcpConnection::EnterClosed(Status error) {
  if (hot_.state == TcpState::kClosed) {
    return;
  }
  hot_.state = TcpState::kClosed;
  if (error_ == Status::kOk && error != Status::kOk) {
    error_ = error;
  }
  if (pending_listener_ != nullptr) {
    pending_listener_->syn_rcvd_count_--;
    pending_listener_ = nullptr;
    // Died before delivery to the app: give the tenant its accept-admission slot back.
    if (stack_.tenants_ != nullptr) {
      stack_.tenants_->ReleaseAccept(tenant_);
    }
  }
  ClearTimers();
  hot_.ack_needed = false;  // a listed burst-flush entry becomes a no-op
  hot_.ack_immediate = false;
  if (cold_ != nullptr) {
    // Drop all buffer references (releases UAF-deferred application frees).
    cold_->inflight.clear();
    cold_->unsent.clear();
    cold_->unsent_bytes = 0;
    cold_->bytes_inflight = 0;
    // Wake application waiters so they observe the close.
    cold_->readable.Notify();
    cold_->established.Notify();
  }
}

// ============================== TcpStack ==========================================

TcpStack::TcpStack(EthernetLayer& eth, Scheduler& scheduler, PoolAllocator& alloc, Clock& clock,
                   TcpConfig config)
    : eth_(eth), scheduler_(scheduler), alloc_(alloc), clock_(clock), config_(config),
      rng_(config.isn_seed), cookies_(rng_.Next()), conns_(config.flow_table_capacity) {
  eth_.RegisterReceiver(IpProto::kTcp, this);
}

TcpStack::~TcpStack() {
  conns_.ForEach([](uint64_t /*key*/, const std::shared_ptr<TcpConnection>& conn) {
    conn->EnterClosed(Status::kCancelled);
  });
}

size_t TcpStack::DefaultMss() const {
  return eth_.MaxIpPayload() - TcpHeader::kBaseSize;
}

uint16_t TcpStack::AllocEphemeralPort() {
  for (int tries = 0; tries < 65536; tries++) {
    const uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65500 ? 40000 : next_ephemeral_ + 1;
    bool taken = listeners_.count(port) > 0;
    if (!taken) {
      return port;
    }
  }
  return 0;
}

Result<std::shared_ptr<TcpConnection>> TcpStack::Connect(SocketAddress remote) {
  const uint16_t local_port = AllocEphemeralPort();
  if (local_port == 0) {
    return Status::kNoBufferSpace;
  }
  const uint64_t key = FlowTable::MakeKey(remote.ip.value, remote.port, local_port);
  if (conns_.Find(key) != nullptr) {
    return Status::kAddressInUse;
  }
  const SocketAddress local{eth_.local_ip(), local_port};
  auto conn = slab_.Make<TcpConnection>(*this, local, remote, NewIss());
  conns_.Insert(key, conn);
  stats_.conns_opened++;
  conn->StartActiveOpen(clock_.Now());  // an app call: one clock read for the SYN and its timer
  return conn;
}

Result<TcpListener*> TcpStack::Listen(uint16_t port, size_t backlog) {
  if (port == 0 || listeners_.count(port) > 0) {
    return Status::kAddressInUse;
  }
  auto listener = std::make_unique<TcpListener>();
  listener->port_ = port;
  listener->backlog_ = backlog == 0 ? 64 : backlog;
  listener->stack_ = this;
  TcpListener* raw = listener.get();
  listeners_[port] = std::move(listener);
  return raw;
}

void TcpStack::CloseListener(TcpListener* listener) {
  if (listener == nullptr) {
    return;
  }
  for (auto& conn : listener->ready_) {
    conn->Abort();
    conn->ReleaseByApp();
    // Ready-but-never-accepted: the admission slot charged at SYN time comes back here.
    if (tenants_ != nullptr) {
      tenants_->ReleaseAccept(conn->tenant());
    }
  }
  listeners_.erase(listener->port_);
}

std::shared_ptr<TcpConnection> TcpListener::Accept() {
  if (ready_.empty()) {
    return nullptr;
  }
  auto conn = std::move(ready_.front());
  ready_.pop_front();
  // Delivered to the application: the accept-admission slot frees up for the next handshake.
  if (stack_ != nullptr && stack_->tenants_ != nullptr) {
    stack_->tenants_->ReleaseAccept(conn->tenant());
  }
  return conn;
}

Status TcpStack::SendSegment(const TcpHeader& hdr, Ipv4Addr dst,
                             std::span<const std::span<const uint8_t>> payload_slices,
                             TenantId tenant) {
  uint8_t hdr_bytes[TcpHeader::kBaseSize + TcpHeader::kMaxOptionBytes];
  hdr.Serialize(hdr_bytes, eth_.local_ip(), dst, payload_slices,
                /*compute_checksum=*/!eth_.checksum_offload());
  const size_t hdr_len = hdr.SerializedSize();
  stats_.segments_tx++;
  // Gather [tcp hdr | payload slices...]; the ethernet layer prepends its own header slot.
  DEMI_CHECK(payload_slices.size() <= SegmentPayload::kMaxSlices);
  std::span<const uint8_t> segs[1 + SegmentPayload::kMaxSlices];
  segs[0] = {hdr_bytes, hdr_len};
  size_t n = 1;
  for (const auto& slice : payload_slices) {
    if (!slice.empty()) {
      segs[n++] = slice;
    }
  }
  return eth_.SendIpv4(dst, IpProto::kTcp, {segs, n}, tenant);
}

void TcpStack::SendRst(const TcpHeader& in, Ipv4Addr dst) {
  TcpHeader rst;
  rst.src_port = in.dst_port;
  rst.dst_port = in.src_port;
  rst.flags.rst = true;
  rst.flags.ack = true;
  rst.seq = in.ack;
  rst.ack = in.seq + 1;
  stats_.rst_sent++;
  if (SendSegment(rst, dst, {}) != Status::kOk) {
    stats_.tx_errors++;  // best-effort by design; an unanswered peer retries and re-triggers it
  }
}

void TcpStack::SendSynCookieSynAck(const TcpHeader& syn, Ipv4Addr src, uint64_t key,
                                   TimeNs now) {
  SynCookies::SynOptions opts;
  const uint32_t peer_mss =
      syn.mss_option ? *syn.mss_option : SynCookies::kMssTable[0];
  opts.mss = SynCookies::RoundMss(
      std::min<uint32_t>(peer_mss, static_cast<uint32_t>(DefaultMss())));
  opts.peer_wscale =
      syn.window_scale_option ? *syn.window_scale_option : SynCookies::kNoWscale;
  opts.timestamps = syn.timestamps_option.has_value() && config_.timestamps;
  const uint32_t cookie = cookies_.Encode(key, syn.seq, opts, now);

  TcpHeader hdr;
  hdr.src_port = syn.dst_port;
  hdr.dst_port = syn.src_port;
  hdr.seq = cookie;  // the ISS *is* the cookie
  hdr.ack = syn.seq + 1;
  hdr.flags.syn = true;
  hdr.flags.ack = true;
  hdr.window = static_cast<uint16_t>(std::min<size_t>(config_.recv_buffer_bytes, 0xFFFF));
  hdr.mss_option = static_cast<uint16_t>(opts.mss);
  if (syn.window_scale_option) {
    hdr.window_scale_option = config_.window_scale;
  }
  if (opts.timestamps) {
    hdr.timestamps_option =
        TcpHeader::Timestamps{TcpConnection::Tsval(now), syn.timestamps_option->tsval};
  }
  stats_.syn_cookies_sent++;
  if (SendSegment(hdr, src, {}) != Status::kOk) {
    stats_.tx_errors++;  // the client's SYN retransmit re-triggers a fresh cookie
  }
}

bool TcpStack::TryCookieValidate(const TcpHeader& hdr, const Ipv4Header& ip,
                                 std::span<const uint8_t> payload, uint64_t key, TimeNs now) {
  auto lit = listeners_.find(hdr.dst_port);
  if (lit == listeners_.end()) {
    return false;
  }
  const uint32_t cookie = hdr.ack - 1;      // our SYN-ACK's ISS
  const uint32_t client_iss = hdr.seq - 1;  // their SYN's ISS
  const auto opts = cookies_.Decode(key, client_iss, cookie, now);
  if (!opts) {
    return false;
  }
  TcpListener* listener = lit->second.get();
  if (listener->ready_.size() >= listener->backlog_) {
    return true;  // valid cookie, no accept-queue room: drop silently (no RST), client retries
  }
  if (tenants_ != nullptr && !tenants_->TryAdmitAccept(listener->tenant())) {
    // Same shed policy as the stateful path: a validated cookie still consumes an
    // accept-admission slot, so an over-limit tenant's handshake completes later.
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kTenantAcceptShed, listener->tenant(), hdr.dst_port);
    }
    return true;
  }
  const SocketAddress local{eth_.local_ip(), hdr.dst_port};
  const SocketAddress remote{ip.src, hdr.src_port};
  auto conn = slab_.Make<TcpConnection>(*this, local, remote, SeqNum{cookie});
  conn->set_tenant(listener->tenant());
  conn->CompleteCookieOpen(hdr, *opts);
  conns_.Insert(key, conn);
  stats_.conns_opened++;
  stats_.syn_cookies_validated++;
  listener->ready_.push_back(conn);
  listener->acceptable_.Notify();
  if (!payload.empty() || hdr.flags.fin) {
    conn->OnSegment(hdr, payload, now);  // the validating ACK may carry the first data
  }
  return true;
}

void TcpStack::OnRxBurstBegin() { in_burst_ = true; }

void TcpStack::OnRxBurstEnd(TimeNs now) {
  in_burst_ = false;
  for (TcpConnection* conn : pending_ack_conns_) {
    conn->hot_.ack_pending_listed = false;
    if (conn->hot_.state != TcpState::kClosed && conn->hot_.ack_needed) {
      conn->SendPureAck(now);  // one coalesced pure ack per connection per burst
    }
  }
  pending_ack_conns_.clear();
}

void TcpStack::OnIpv4Packet(const Ipv4Header& ip, std::span<const uint8_t> l4, TimeNs now) {
  // demilint: fastpath
  size_t hdr_len = 0;
  bool checksum_failed = false;
  const auto hdr = TcpHeader::Parse(l4, ip.src, ip.dst, &hdr_len,
                                    /*verify=*/!eth_.checksum_offload(), &checksum_failed);
  if (!hdr) {
    if (checksum_failed) {
      stats_.rx_checksum_drops++;  // corruption caught before it could reach a connection
    } else {
      stats_.parse_errors++;
    }
    return;
  }
  stats_.segments_rx++;
  const auto payload = l4.subspan(hdr_len);

  const uint64_t key = FlowTable::MakeKey(ip.src.value, hdr->src_port, hdr->dst_port);
  TcpConnection* conn = conns_.Find(key);
  if (conn != nullptr) {
    conn->OnSegment(*hdr, payload, now);
    return;
  }
  // demilint: end-fastpath

  // No connection: a SYN may match a listener.
  if (hdr->flags.syn && !hdr->flags.ack) {
    auto lit = listeners_.find(hdr->dst_port);
    if (lit != listeners_.end()) {
      TcpListener* listener = lit->second.get();
      if (config_.syn_cookies) {
        // Stateless handshake: answer with a cookie SYN-ACK, allocate nothing until the
        // third ACK validates (docs/SCALING.md §2).
        SendSynCookieSynAck(*hdr, ip.src, key, now);
        return;
      }
      if (listener->ready_.size() + listener->syn_rcvd_count_ >= listener->backlog_ ||
          conns_.size() >= kTcpMaxSynBacklog + 1024) {
        return;  // backlog full: drop the SYN, client retries
      }
      if (tenants_ != nullptr && !tenants_->TryAdmitAccept(listener->tenant())) {
        // Tenant over its accept-admission limit: shed the SYN silently (no RST), the
        // client's retransmit retries once the tenant drains its accept queue.
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventType::kTenantAcceptShed, listener->tenant(),
                          hdr->dst_port);
        }
        return;
      }
      const SocketAddress local{eth_.local_ip(), hdr->dst_port};
      const SocketAddress remote{ip.src, hdr->src_port};
      auto new_conn = slab_.Make<TcpConnection>(*this, local, remote, NewIss());
      conns_.Insert(key, new_conn);
      stats_.conns_opened++;
      new_conn->StartPassiveOpen(*hdr, listener, now);
      return;
    }
  } else if (config_.syn_cookies && hdr->flags.ack && !hdr->flags.rst && !hdr->flags.syn) {
    if (TryCookieValidate(*hdr, ip, payload, key, now)) {
      return;
    }
  }
  stats_.no_connection++;
  if (!hdr->flags.rst) {
    SendRst(*hdr, ip.src);
  }
}

namespace {
void AccumulateConnStats(TcpConnection::ConnStats* into, const TcpConnection::ConnStats& s) {
  into->segments_sent += s.segments_sent;
  into->segments_received += s.segments_received;
  into->bytes_sent += s.bytes_sent;
  into->bytes_received += s.bytes_received;
  into->retransmits += s.retransmits;
  into->fast_retransmits += s.fast_retransmits;
  into->out_of_order += s.out_of_order;
  into->dup_acks_seen += s.dup_acks_seen;
  into->paws_drops += s.paws_drops;
  into->ts_rtt_samples += s.ts_rtt_samples;
  into->coalesced_segments += s.coalesced_segments;
  into->delayed_acks += s.delayed_acks;
}
}  // namespace

void TcpStack::Reap() {
  const size_t reaped = conns_.EraseIf(
      [this](uint64_t /*key*/, const std::shared_ptr<TcpConnection>& conn) {
        if (conn->state() == TcpState::kClosed && conn->app_released()) {
          AccumulateConnStats(&reaped_conn_stats_, conn->conn_stats());
          return true;
        }
        return false;
      });
  stats_.conns_reaped += reaped;
}

TcpConnection::ConnStats TcpStack::AggregateConnStats() const {
  TcpConnection::ConnStats total = reaped_conn_stats_;
  conns_.ForEach([&total](uint64_t /*key*/, const std::shared_ptr<TcpConnection>& conn) {
    AccumulateConnStats(&total, conn->conn_stats());
  });
  return total;
}

void TcpStack::SetObservability(MetricsRegistry* registry, Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    return;
  }
  MetricsRegistry& reg = *registry;
  reg.RegisterCounter("tcp.segments_rx", "segments", [this] { return stats_.segments_rx; });
  reg.RegisterCounter("tcp.segments_tx", "segments", [this] { return stats_.segments_tx; });
  reg.RegisterCounter("tcp.rst_sent", "segments", [this] { return stats_.rst_sent; });
  reg.RegisterCounter("tcp.no_connection", "segments", [this] { return stats_.no_connection; });
  reg.RegisterCounter("tcp.parse_errors", "segments", [this] { return stats_.parse_errors; });
  reg.RegisterCounter("tcp.rx_checksum_drops", "segments",
                      [this] { return stats_.rx_checksum_drops; });
  reg.RegisterCounter("tcp.rx_alloc_drops", "segments", [this] { return stats_.rx_alloc_drops; });
  reg.RegisterCounter("tcp.tx_errors", "segments", [this] { return stats_.tx_errors; });
  reg.RegisterCounter("tcp.conns_opened", "conns", [this] { return stats_.conns_opened; });
  reg.RegisterCounter("tcp.conns_reaped", "conns", [this] { return stats_.conns_reaped; });
  reg.RegisterGauge("tcp.connections", "conns", [this] { return conns_.size(); });
  reg.RegisterCounter("tcp.syn_cookies_sent", "segments",
                      [this] { return stats_.syn_cookies_sent; });
  reg.RegisterCounter("tcp.syn_cookies_validated", "conns",
                      [this] { return stats_.syn_cookies_validated; });
  reg.RegisterGauge("tcp.tcb_bytes", "bytes", [this] { return TcbBytesReserved(); });
  reg.RegisterCounter("tcp.bytes_sent", "bytes",
                      [this] { return AggregateConnStats().bytes_sent; });
  reg.RegisterCounter("tcp.bytes_received", "bytes",
                      [this] { return AggregateConnStats().bytes_received; });
  reg.RegisterCounter("tcp.retransmits", "segments",
                      [this] { return AggregateConnStats().retransmits; });
  reg.RegisterCounter("tcp.fast_retransmits", "segments",
                      [this] { return AggregateConnStats().fast_retransmits; });
  reg.RegisterCounter("tcp.out_of_order", "segments",
                      [this] { return AggregateConnStats().out_of_order; });
  reg.RegisterCounter("tcp.dup_acks", "acks",
                      [this] { return AggregateConnStats().dup_acks_seen; });
  reg.RegisterCounter("tcp.paws_drops", "segments",
                      [this] { return AggregateConnStats().paws_drops; });
  reg.RegisterCounter("tcp.coalesced_segments", "segments",
                      [this] { return AggregateConnStats().coalesced_segments; });
  reg.RegisterCounter("tcp.delayed_acks", "acks",
                      [this] { return AggregateConnStats().delayed_acks; });
}

}  // namespace demi
