// Tenant registry: per-tenant isolation policy (memory budget, TX rate/weight, accept
// admission, load-shedding watermark) plus the admission-control counters the datapath
// consults on every accept and op submission. One table per libOS instance (per shard), so
// lookups are single-threaded and lock-free, matching the shared-nothing shard model.
//
// Policy semantics (docs/TENANCY.md): a knob set to 0 means "unlimited/disabled", and tenant
// 0 (kDefaultTenant) is the control domain — it is never budgeted, throttled, or shed.

#ifndef SRC_CORE_TENANT_H_
#define SRC_CORE_TENANT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/types.h"

namespace demi {

// Per-tenant isolation policy. Defaults are fully permissive: registering a tenant with a
// default-constructed config only makes it visible in metrics.
struct TenantConfig {
  // Registered-memory budget enforced by PoolAllocator::AllocFor (bytes of size-class
  // capacity, not requested bytes). 0 = unlimited.
  size_t mem_budget_bytes = 0;
  // Token-bucket TX rate in bits/sec and burst allowance in bytes. rate 0 = unlimited.
  uint64_t tx_rate_bps = 0;
  size_t tx_burst_bytes = 64 * 1024;
  // Weighted-DRR share of link time when several tenants have backlogged TX.
  uint32_t tx_weight = 1;
  // Max connections admitted-but-not-yet-Accept()ed for this tenant across all its
  // listeners (SYN-cookie validations included). 0 = unlimited.
  size_t accept_backlog = 0;
  // Load-shedding watermark on inflight qtokens: new push/pop submissions beyond this get
  // kQueueFull so the poll loop catches up at the noisiest tenant's expense. 0 = disabled.
  size_t inflight_watermark = 0;
};

class TenantTable {
 public:
  struct TenantStats {
    uint64_t accept_admitted = 0;
    uint64_t accept_shed = 0;
    uint64_t op_shed = 0;
    size_t accept_inflight = 0;
  };

  // Registers (or reconfigures) a tenant. kDefaultTenant is not registrable: it is the
  // implicit, unlimited control domain.
  void Register(TenantId tenant, const TenantConfig& config);

  bool IsRegistered(TenantId tenant) const { return FindEntry(tenant) != nullptr; }
  const TenantConfig* Find(TenantId tenant) const;

  // Accept-queue admission: charges one slot against the tenant's accept_backlog. Returns
  // false (and counts the shed) when the tenant is at its backlog limit. Unregistered
  // tenants and kDefaultTenant are always admitted (uncounted).
  bool TryAdmitAccept(TenantId tenant);
  // Releases a slot charged by TryAdmitAccept: the connection was handed to the app via
  // Accept(), or died before delivery (reset, listener close).
  void ReleaseAccept(TenantId tenant);

  // Load shedding: true when the tenant has an inflight_watermark and `inflight_qtokens`
  // has reached it. Cheap no-op fast path when no tenant sets a watermark.
  bool ShouldShed(TenantId tenant, size_t inflight_qtokens) const;
  void CountOpShed(TenantId tenant);

  TenantStats GetStats(TenantId tenant) const;
  size_t NumRegistered() const { return entries_.size(); }

  // Aggregates for fixed (unlabelled) metrics.
  uint64_t TotalAcceptAdmitted() const;
  uint64_t TotalAcceptShed() const;
  uint64_t TotalOpShed() const;

 private:
  struct Entry {
    TenantId id = kDefaultTenant;
    TenantConfig config;
    TenantStats stats;
  };

  Entry* FindEntry(TenantId tenant);
  const Entry* FindEntry(TenantId tenant) const;

  // Linear scan: tenant counts are small (a handful per shard) and entries are hot in cache.
  std::vector<Entry> entries_;
  bool any_watermark_ = false;
};

}  // namespace demi

#endif  // SRC_CORE_TENANT_H_
