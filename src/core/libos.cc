#include "src/core/libos.h"

namespace demi {

void LibOS::InitObservability() {
  sched_.SetTracer(&tracer_);
  tokens_.SetTracer(&tracer_);

  const TimerWheel& wheel = sched_.timer_wheel();
  metrics_.RegisterCounter("sched.polls", "polls", [this] { return sched_.polls(); });
  metrics_.RegisterCounter("sched.timer_fires", "timers", [&wheel] { return wheel.stats().fires; });
  metrics_.RegisterGauge("timerwheel.armed", "timers", [&wheel] { return wheel.armed(); });
  metrics_.RegisterCounter("timerwheel.arms", "timers", [&wheel] { return wheel.stats().arms; });
  metrics_.RegisterCounter("timerwheel.fires", "timers", [&wheel] { return wheel.stats().fires; });
  metrics_.RegisterCounter("timerwheel.cancels", "timers",
                           [&wheel] { return wheel.stats().cancels; });
  metrics_.RegisterCounter("timerwheel.cascades", "timers",
                           [&wheel] { return wheel.stats().cascades; });

  metrics_.RegisterGauge("heap.superblocks", "blocks",
                         [this] { return alloc_.GetStats().superblocks; });
  metrics_.RegisterGauge("heap.live_objects", "objects",
                         [this] { return alloc_.GetStats().live_objects; });
  metrics_.RegisterGauge("heap.deferred_frees", "objects",
                         [this] { return alloc_.GetStats().deferred_frees; });
  metrics_.RegisterGauge("heap.registered_blocks", "blocks",
                         [this] { return alloc_.GetStats().registered_blocks; });
  metrics_.RegisterGauge("heap.overflow_refs", "refs",
                         [this] { return alloc_.GetStats().overflow_refs; });
  metrics_.RegisterGauge("heap.bytes_reserved", "bytes",
                         [this] { return alloc_.GetStats().bytes_reserved; });

  wait_calls_ = &metrics_.RegisterCounter("core.wait_calls", "calls");
  wait_poll_rounds_ = &metrics_.RegisterCounter("core.wait_poll_rounds", "rounds");
  wait_ns_ = &metrics_.RegisterHistogram("core.wait_ns", "ns");
  metrics_.RegisterGauge("core.tokens_pending", "tokens", [this] { return tokens_.NumInUse(); });

  metrics_.RegisterGauge("tenant.registered", "tenants",
                         [this] { return tenants_.NumRegistered(); });
  metrics_.RegisterCounter("tenant.accept_admitted", "connections",
                           [this] { return tenants_.TotalAcceptAdmitted(); });
  metrics_.RegisterCounter("tenant.accept_shed", "connections",
                           [this] { return tenants_.TotalAcceptShed(); });
  metrics_.RegisterCounter("tenant.op_shed", "ops", [this] { return tenants_.TotalOpShed(); });
  metrics_.RegisterCounter("tenant.mem_denials", "allocations",
                           [this] { return alloc_.TenantDenials(); });
  metrics_.RegisterGauge("tenant.mem_used_bytes", "bytes",
                         [this] { return static_cast<uint64_t>(alloc_.TenantBytesUsed()); });

  metrics_.RegisterCounter("qtoken.lifecycle_violations", "violations",
                           [this] { return tokens_.lifecycle_violations(); });
  Gauge& demisan = metrics_.RegisterGauge("demisan.enabled", "bool");
#if defined(DEMI_OWNERSHIP_CHECKS)
  demisan.Set(1);
#else
  demisan.Set(0);
#endif
  numa_gauge_ = &metrics_.RegisterGauge("pool.numa_node", "node");
  numa_gauge_->Set(-1);
}

Status LibOS::RegisterTenant(TenantId tenant, const TenantConfig& config) {
  if (tenant == kDefaultTenant) {
    return Status::kInvalidArgument;  // tenant 0 is the implicit control domain
  }
  const bool fresh = !tenants_.IsRegistered(tenant);
  tenants_.Register(tenant, config);
  alloc_.SetTenantBudget(tenant, config.mem_budget_bytes);
  if (fresh) {
    // Per-tenant labelled metrics. The {tenant=N} suffix keeps them out of the fixed metric
    // namespace (docs/OBSERVABILITY.md documents the families once, not per id).
    const std::string label = "{tenant=" + std::to_string(tenant) + "}";
    metrics_.RegisterGauge("tenant.mem_used" + label, "bytes", [this, tenant] {
      return static_cast<uint64_t>(alloc_.GetTenantMemStats(tenant).used_bytes);
    });
    metrics_.RegisterCounter("tenant.mem_denials" + label, "allocations",
                             [this, tenant] { return alloc_.GetTenantMemStats(tenant).denials; });
    metrics_.RegisterCounter("tenant.accept_shed" + label, "connections",
                             [this, tenant] { return tenants_.GetStats(tenant).accept_shed; });
    metrics_.RegisterCounter("tenant.op_shed" + label, "ops",
                             [this, tenant] { return tenants_.GetStats(tenant).op_shed; });
    metrics_.RegisterGauge("tenant.inflight_qtokens" + label, "tokens",
                           [this, tenant] { return tokens_.InflightForTenant(tenant); });
  }
  OnTenantRegistered(tenant, config);
  return Status::kOk;
}

size_t LibOS::DrainPendingTokens() {
  // Give in-flight work a bounded chance to complete normally first: each round is one poll.
  constexpr size_t kMaxDrainRounds = 64;
  for (size_t round = 0; round < kMaxDrainRounds && tokens_.NumPending() > 0; round++) {
    PollOnce();
  }
  // Force-dispose what is left. Completed-but-unclaimed pops carry app-owned sga buffers that
  // must go back to the heap, or shutdown leaks them (and DemiSan flags the imbalance).
  return tokens_.Drain([this](QResult& result) {
    if (result.opcode == OpCode::kPop && result.status == Status::kOk) {
      FreeSga(result.sga);
    }
  });
}

Result<QResult> LibOS::Wait(QToken qt, DurationNs timeout) {
  // demilint: fastpath
  if (!tokens_.IsValid(qt)) {
    return Status::kBadQToken;
  }
  wait_calls_->Inc();
  const TimeNs start = clock_.Now();
  const TimeNs deadline = timeout == 0 ? 0 : start + timeout;
  for (;;) {
    if (tokens_.IsDone(qt)) {
      auto r = tokens_.Take(qt);
      wait_ns_->Record(clock_.Now() - start);
      if (r.ok()) {
        tracer_.Record(TraceEventType::kQTokenRedeemed, static_cast<uint32_t>(r->qd), qt);
      }
      return r;
    }
    PollOnce();
    RunExternalPump();
    wait_poll_rounds_->Inc();
    if (deadline != 0 && clock_.Now() >= deadline && !tokens_.IsDone(qt)) {
      return Status::kTimedOut;
    }
  }
  // demilint: end-fastpath
}

template <typename OnDone>
bool LibOS::WaitAnyLoop(std::span<const QToken> qts, DurationNs timeout, OnDone&& on_done) {
  // demilint: fastpath
  wait_calls_->Inc();
  const TimeNs start = clock_.Now();
  const TimeNs deadline = timeout == 0 ? 0 : start + timeout;
  // Fairness: rotate where the scan starts so that when several tokens are done at once, a
  // perpetually-busy low index cannot starve the others across repeated calls (callers that
  // consume only a prefix of a harvest would otherwise favor low indices forever).
  const size_t rot = qts.empty() ? 0 : wait_any_rr_++ % qts.size();
  for (;;) {
    bool claimed = false;
    for (size_t k = 0; k < qts.size(); k++) {
      const size_t i = (rot + k) % qts.size();
      if (tokens_.IsDone(qts[i])) {
        claimed = true;
        if (on_done(i)) {
          break;
        }
      }
    }
    if (claimed) {
      wait_ns_->Record(clock_.Now() - start);
      return true;
    }
    // Checked after the scan, so a token completed by the round that crossed the deadline is
    // still claimed above.
    if (deadline != 0 && clock_.Now() >= deadline) {
      return false;
    }
    PollOnce();
    RunExternalPump();
    wait_poll_rounds_->Inc();
  }
  // demilint: end-fastpath
}

Result<QResult> LibOS::WaitAny(std::span<const QToken> qts, size_t* index_out,
                               DurationNs timeout) {
  // demilint: fastpath
  for (QToken qt : qts) {
    if (!tokens_.IsValid(qt)) {
      return Status::kBadQToken;
    }
  }
  Result<QResult> result = Status::kTimedOut;
  WaitAnyLoop(qts, timeout, [&](size_t i) {
    if (index_out != nullptr) {
      *index_out = i;
    }
    result = tokens_.Take(qts[i]);
    tracer_.Record(TraceEventType::kQTokenRedeemed, static_cast<uint32_t>(result->qd), qts[i]);
    return true;  // one token per call
  });
  return result;
  // demilint: end-fastpath
}

size_t LibOS::WaitAnyHarvest(std::span<const QToken> qts, std::vector<QResult>* events,
                             std::vector<size_t>* indices, DurationNs timeout) {
  // demilint: fastpath
  size_t harvested = 0;
  WaitAnyLoop(qts, timeout, [&](size_t i) {
    auto r = tokens_.Take(qts[i]);
    tracer_.Record(TraceEventType::kQTokenRedeemed, static_cast<uint32_t>(r->qd), qts[i]);
    if (events != nullptr) {
      // demilint: allow(fastpath-alloc) caller-owned vector, bounded by qts.size()
      events->push_back(*r);
    }
    if (indices != nullptr) {
      // demilint: allow(fastpath-alloc) caller-owned vector, bounded by qts.size()
      indices->push_back(i);
    }
    harvested++;
    return false;  // keep scanning: harvest every done token
  });
  return harvested;
  // demilint: end-fastpath
}

Status LibOS::WaitAll(std::span<const QToken> qts, std::vector<QResult>* out,
                      DurationNs timeout) {
  const TimeNs deadline = timeout == 0 ? 0 : clock_.Now() + timeout;
  for (QToken qt : qts) {
    const DurationNs left =
        deadline == 0 ? 0
                      : (clock_.Now() >= deadline ? 1 : deadline - clock_.Now());
    auto r = Wait(qt, left);
    if (!r.ok()) {
      return r.error();
    }
    if (out != nullptr) {
      out->push_back(*r);
    }
  }
  return Status::kOk;
}

}  // namespace demi
