#include "src/core/tenant.h"

namespace demi {

void TenantTable::Register(TenantId tenant, const TenantConfig& config) {
  if (tenant == kDefaultTenant) {
    return;  // the control domain is implicit and unlimited
  }
  Entry* e = FindEntry(tenant);
  if (e == nullptr) {
    entries_.push_back(Entry{tenant, config, TenantStats{}});
  } else {
    e->config = config;
  }
  any_watermark_ = false;
  for (const Entry& entry : entries_) {
    if (entry.config.inflight_watermark > 0) {
      any_watermark_ = true;
    }
  }
}

TenantTable::Entry* TenantTable::FindEntry(TenantId tenant) {
  for (Entry& e : entries_) {
    if (e.id == tenant) {
      return &e;
    }
  }
  return nullptr;
}

const TenantTable::Entry* TenantTable::FindEntry(TenantId tenant) const {
  for (const Entry& e : entries_) {
    if (e.id == tenant) {
      return &e;
    }
  }
  return nullptr;
}

const TenantConfig* TenantTable::Find(TenantId tenant) const {
  const Entry* e = FindEntry(tenant);
  return e == nullptr ? nullptr : &e->config;
}

bool TenantTable::TryAdmitAccept(TenantId tenant) {
  Entry* e = FindEntry(tenant);
  if (e == nullptr) {
    return true;  // unregistered tenants (and kDefaultTenant) are never limited
  }
  if (e->config.accept_backlog > 0 && e->stats.accept_inflight >= e->config.accept_backlog) {
    e->stats.accept_shed++;
    return false;
  }
  e->stats.accept_inflight++;
  e->stats.accept_admitted++;
  return true;
}

void TenantTable::ReleaseAccept(TenantId tenant) {
  Entry* e = FindEntry(tenant);
  if (e != nullptr && e->stats.accept_inflight > 0) {
    e->stats.accept_inflight--;
  }
}

bool TenantTable::ShouldShed(TenantId tenant, size_t inflight_qtokens) const {
  if (!any_watermark_ || tenant == kDefaultTenant) {
    return false;
  }
  const Entry* e = FindEntry(tenant);
  if (e == nullptr || e->config.inflight_watermark == 0) {
    return false;
  }
  return inflight_qtokens >= e->config.inflight_watermark;
}

void TenantTable::CountOpShed(TenantId tenant) {
  Entry* e = FindEntry(tenant);
  if (e != nullptr) {
    e->stats.op_shed++;
  }
}

TenantTable::TenantStats TenantTable::GetStats(TenantId tenant) const {
  const Entry* e = FindEntry(tenant);
  return e == nullptr ? TenantStats{} : e->stats;
}

uint64_t TenantTable::TotalAcceptAdmitted() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) {
    total += e.stats.accept_admitted;
  }
  return total;
}

uint64_t TenantTable::TotalAcceptShed() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) {
    total += e.stats.accept_shed;
  }
  return total;
}

uint64_t TenantTable::TotalOpShed() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) {
    total += e.stats.op_shed;
  }
  return total;
}

}  // namespace demi
