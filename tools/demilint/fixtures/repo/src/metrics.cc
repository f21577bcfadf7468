// Miniature registration site for the metric-drift selftest: each call is checked against the
// table in docs/OBSERVABILITY.md next to it.

void RegisterFixtureMetrics(MetricsRegistry& reg, const std::string& label) {
  reg.RegisterCounter("tcp.good", "segments", [this] { return stats_.good; });
  reg.RegisterCounter(
      "tcp.multi_line", "segments",
      [this] { return stats_.multi_line; });
  reg.RegisterHistogram("core.wait_ns", "ns");
  reg.RegisterGauge("tenant.mem_used" + label, "bytes", [this] { return used_; });
  reg.RegisterGauge("tcp.level", "conns", [this] { return conns_.size(); });  // demilint-expect: metric-drift
  reg.RegisterCounter("tcp.bytes", "bytes");  // demilint-expect: metric-drift
  reg.RegisterCounter("tcp.rogue", "segments");  // demilint-expect: metric-drift
}
