#include "src/faults/fault_injector.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace demi {

bool FaultPlan::Any() const {
  return net_corrupt > 0 || net_link_flap > 0 || net_partition > 0 || disk_error > 0 ||
         disk_delay > 0 || disk_torn > 0 || alloc_fail > 0 ||
         (tenant_drop > 0 && tenant_drop_id != kDefaultTenant);
}

namespace {

bool ParseU64(std::string_view v, uint64_t* out) {
  char* end = nullptr;
  const std::string s(v);
  const unsigned long long x = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0') {
    return false;
  }
  *out = x;
  return true;
}

bool ParseProb(std::string_view v, double* out) {
  char* end = nullptr;
  const std::string s(v);
  const double x = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || x < 0.0 || x > 1.0) {
    return false;
  }
  *out = x;
  return true;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::Parse(std::string_view spec, std::string* error) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      continue;
    }
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "missing '=' in \"" + std::string(item) + "\"";
      }
      return std::nullopt;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    uint64_t u = 0;
    bool ok;
    if (key == "seed") {
      ok = ParseU64(val, &plan.seed);
    } else if (key == "net_corrupt") {
      ok = ParseProb(val, &plan.net_corrupt);
    } else if (key == "net_corrupt_bits") {
      ok = ParseU64(val, &u) && u >= 1 && u <= 64;
      plan.net_corrupt_bits = static_cast<uint32_t>(u);
    } else if (key == "net_link_flap") {
      ok = ParseProb(val, &plan.net_link_flap);
    } else if (key == "net_link_down_ns") {
      ok = ParseU64(val, &u);
      plan.net_link_down_ns = static_cast<DurationNs>(u);
    } else if (key == "net_partition") {
      ok = ParseProb(val, &plan.net_partition);
    } else if (key == "net_partition_ns") {
      ok = ParseU64(val, &u);
      plan.net_partition_ns = static_cast<DurationNs>(u);
    } else if (key == "disk_error") {
      ok = ParseProb(val, &plan.disk_error);
    } else if (key == "disk_delay") {
      ok = ParseProb(val, &plan.disk_delay);
    } else if (key == "disk_delay_ns") {
      ok = ParseU64(val, &u);
      plan.disk_delay_ns = static_cast<DurationNs>(u);
    } else if (key == "disk_torn") {
      ok = ParseProb(val, &plan.disk_torn);
    } else if (key == "alloc_fail") {
      ok = ParseProb(val, &plan.alloc_fail);
    } else if (key == "tenant_drop") {
      // "<id>:<rate>": aim per-frame loss at one tenant's TX path.
      const size_t colon = val.find(':');
      ok = colon != std::string_view::npos && ParseU64(val.substr(0, colon), &u) &&
           u <= UINT16_MAX && ParseProb(val.substr(colon + 1), &plan.tenant_drop);
      plan.tenant_drop_id = static_cast<uint32_t>(u);
    } else {
      if (error != nullptr) {
        *error = "unknown FaultPlan key \"" + std::string(key) + "\"";
      }
      return std::nullopt;
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "bad value for \"" + std::string(key) + "\": \"" + std::string(val) + "\"";
      }
      return std::nullopt;
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::FromEnv() { return FromEnv(FaultPlan{}); }

std::optional<FaultPlan> FaultPlan::FromEnv(const FaultPlan& fallback) {
  const char* plan_env = std::getenv("DEMI_FAULT_PLAN");
  const char* seed_env = std::getenv("DEMI_FAULT_SEED");
  if (plan_env == nullptr && seed_env == nullptr) {
    return std::nullopt;
  }
  FaultPlan plan = fallback;
  if (plan_env != nullptr) {
    std::string error;
    auto parsed = Parse(plan_env, &error);
    if (!parsed.has_value()) {
      return std::nullopt;
    }
    plan = *parsed;
  }
  if (seed_env != nullptr) {
    uint64_t seed = 0;
    if (ParseU64(seed_env, &seed)) {
      plan.seed = seed;
    }
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (net_corrupt > 0) {
    os << ",net_corrupt=" << net_corrupt << ",net_corrupt_bits=" << net_corrupt_bits;
  }
  if (net_link_flap > 0) {
    os << ",net_link_flap=" << net_link_flap << ",net_link_down_ns=" << net_link_down_ns;
  }
  if (net_partition > 0) {
    os << ",net_partition=" << net_partition << ",net_partition_ns=" << net_partition_ns;
  }
  if (disk_error > 0) {
    os << ",disk_error=" << disk_error;
  }
  if (disk_delay > 0) {
    os << ",disk_delay=" << disk_delay << ",disk_delay_ns=" << disk_delay_ns;
  }
  if (disk_torn > 0) {
    os << ",disk_torn=" << disk_torn;
  }
  if (alloc_fail > 0) {
    os << ",alloc_fail=" << alloc_fail;
  }
  if (tenant_drop > 0 && tenant_drop_id != kDefaultTenant) {
    os << ",tenant_drop=" << tenant_drop_id << ":" << tenant_drop;
  }
  return os.str();
}

void FaultInjector::Arm(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  rng_ = Rng(plan.seed);
  stats_ = Stats{};
  link_down_until_ = 0;
  partitions_.clear();
  armed_ = true;
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  link_down_until_ = 0;
  partitions_.clear();
}

bool FaultInjector::NetShouldDrop(MacAddr src, MacAddr dst, TimeNs now) {
  if (!armed_) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // New fault windows open before the drop check so the triggering frame is itself swallowed.
  if (plan_.net_link_flap > 0 && now >= link_down_until_ && rng_.NextBool(plan_.net_link_flap)) {
    link_down_until_ = now + plan_.net_link_down_ns;
    stats_.link_flaps++;
    Trace(TraceEventType::kFaultLinkFlap, 0, static_cast<uint64_t>(plan_.net_link_down_ns));
  }
  const std::pair<uint64_t, uint64_t> key{std::min(src.value, dst.value),
                                          std::max(src.value, dst.value)};
  if (plan_.net_partition > 0 && rng_.NextBool(plan_.net_partition)) {
    auto [it, inserted] = partitions_.try_emplace(key, now + plan_.net_partition_ns);
    if (!inserted) {
      it->second = std::max(it->second, now + plan_.net_partition_ns);
    }
    stats_.partitions++;
    Trace(TraceEventType::kFaultPartition, static_cast<uint32_t>(src.value),
          static_cast<uint64_t>(dst.value));
  }
  bool drop = now < link_down_until_;
  if (!drop) {
    auto it = partitions_.find(key);
    if (it != partitions_.end()) {
      if (now < it->second) {
        drop = true;
      } else {
        partitions_.erase(it);  // window expired
      }
    }
  }
  if (drop) {
    stats_.frames_dropped++;
  }
  return drop;
}

bool FaultInjector::NetMaybeCorrupt(std::vector<uint8_t>& frame) {
  if (!armed_ || frame.empty()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.net_corrupt <= 0 || !rng_.NextBool(plan_.net_corrupt)) {
    return false;
  }
  const uint64_t total_bits = static_cast<uint64_t>(frame.size()) * 8;
  uint64_t first_bit = 0;
  for (uint32_t i = 0; i < plan_.net_corrupt_bits; i++) {
    const uint64_t bit = rng_.NextBounded(total_bits);
    if (i == 0) {
      first_bit = bit;
    }
    frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  stats_.frames_corrupted++;
  Trace(TraceEventType::kFaultFrameCorrupt, static_cast<uint32_t>(first_bit), frame.size());
  return true;
}

FaultInjector::DiskFault FaultInjector::DiskOnSubmit(bool is_read, size_t bytes,
                                                     uint64_t cookie) {
  DiskFault fault;
  if (!armed_) {
    return fault;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.disk_delay > 0 && rng_.NextBool(plan_.disk_delay)) {
    fault.extra_latency = plan_.disk_delay_ns;
    stats_.disk_delays++;
    Trace(TraceEventType::kFaultDiskDelay, is_read ? 1 : 0,
          static_cast<uint64_t>(plan_.disk_delay_ns));
  }
  if (!is_read && plan_.disk_torn > 0 && rng_.NextBool(plan_.disk_torn) && bytes > 0) {
    // A crash mid-DMA: some prefix of the payload lands, the op reports failure.
    fault.torn = true;
    fault.torn_bytes = static_cast<size_t>(rng_.NextBounded(bytes));
    fault.io_error = true;
    stats_.disk_torn_writes++;
    stats_.disk_io_errors++;
    Trace(TraceEventType::kFaultTornWrite, static_cast<uint32_t>(fault.torn_bytes), cookie);
    Trace(TraceEventType::kFaultDiskError, 0, cookie);
    return fault;
  }
  if (plan_.disk_error > 0 && rng_.NextBool(plan_.disk_error)) {
    fault.io_error = true;
    stats_.disk_io_errors++;
    Trace(TraceEventType::kFaultDiskError, is_read ? 1 : 0, cookie);
  }
  return fault;
}

bool FaultInjector::AllocShouldFail(size_t bytes) {
  if (!armed_) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.alloc_fail <= 0 || !rng_.NextBool(plan_.alloc_fail)) {
    return false;
  }
  stats_.alloc_failures++;
  Trace(TraceEventType::kFaultAllocFail, 0, bytes);
  return true;
}

bool FaultInjector::TenantShouldDrop(TenantId tenant, size_t bytes) {
  if (!armed_) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_.tenant_drop <= 0 || plan_.tenant_drop_id != tenant ||
      !rng_.NextBool(plan_.tenant_drop)) {
    return false;
  }
  stats_.tenant_frames_dropped++;
  Trace(TraceEventType::kFaultTenantDrop, tenant, bytes);
  return true;
}

FaultInjector::Stats FaultInjector::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FaultInjector::RegisterMetrics(MetricsRegistry& registry) {
  auto stat = [this](uint64_t Stats::* field) {
    return [this, field]() {
      std::lock_guard<std::mutex> lock(mu_);
      return stats_.*field;
    };
  };
  registry.RegisterCounter("faults.frames_corrupted", "frames", stat(&Stats::frames_corrupted));
  registry.RegisterCounter("faults.frames_dropped", "frames", stat(&Stats::frames_dropped));
  registry.RegisterCounter("faults.link_flaps", "events", stat(&Stats::link_flaps));
  registry.RegisterCounter("faults.partitions", "events", stat(&Stats::partitions));
  registry.RegisterCounter("faults.disk_io_errors", "ops", stat(&Stats::disk_io_errors));
  registry.RegisterCounter("faults.disk_delays", "ops", stat(&Stats::disk_delays));
  registry.RegisterCounter("faults.disk_torn_writes", "ops", stat(&Stats::disk_torn_writes));
  registry.RegisterCounter("faults.alloc_failures", "allocs", stat(&Stats::alloc_failures));
  registry.RegisterCounter("faults.tenant_frames_dropped", "frames",
                           stat(&Stats::tenant_frames_dropped));
}

}  // namespace demi
