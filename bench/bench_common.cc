#include "bench/bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>

namespace demi {
namespace bench {

uint16_t UniquePort() {
  static std::atomic<uint16_t> next{
      static_cast<uint16_t>(22000 + (::getpid() % 997) * 37 % 20000)};
  return next++;
}

LoadResult DuetEcho(const EchoSetup& setup, size_t message_size, uint64_t iterations,
                    size_t window) {
  EchoServerOptions sopts{setup.server_addr, setup.type};
  sopts.log_to_disk = setup.log_to_disk;
  EchoServerApp app(setup.server_os, sopts);
  setup.client_os.SetExternalPump([&] {
    setup.server_os.PollOnce();
    app.Pump();
  });
  LoadResult result;
  {
    PdpixTransport link(setup.client_os, setup.type, {setup.server_addr});
    EchoCodec echo(message_size);
    result = RunLoad(link, echo,
                     {iterations, std::min<uint64_t>(iterations / 10 + 1, 200), window});
  }
  setup.client_os.SetExternalPump(nullptr);
  return result;
}

void DumpMetrics(const char* label, LibOS& os) {
  std::printf("\n--- metrics: %s ---\n", label);
  const std::string text = os.metrics().ExportText();
  std::fwrite(text.data(), 1, text.size(), stdout);
}

size_t ExportTraceJson(LibOS& os, const std::string& path) {
  Tracer& tracer = os.tracer();
  if (tracer.size() == 0) {
    return 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return 0;
  }
  const std::string json = tracer.ExportChromeJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return tracer.size();
}

void PrintHeader(const char* title, const char* paper_note, bool latency_columns) {
  std::printf("\n=== %s ===\n", title);
  if (paper_note != nullptr && paper_note[0] != '\0') {
    std::printf("%s\n", paper_note);
  }
  if (latency_columns) {
    std::printf("%-28s %12s %12s %12s %12s  %s\n", "system", "mean(us)", "p50(us)", "p99(us)",
                "p99.9(us)", "note");
  }
}

void PrintLatencyRow(const std::string& name, const Histogram& h, const char* note) {
  std::printf("%-28s %12.2f %12.2f %12.2f %12.2f  %s\n", name.c_str(), h.Mean() / 1e3,
              static_cast<double>(h.P50()) / 1e3, static_cast<double>(h.P99()) / 1e3,
              static_cast<double>(h.P999()) / 1e3, note);
}

void PrintThroughputRow(const std::string& name, double value, const char* unit,
                        const char* note) {
  std::printf("%-28s %12.2f %-10s  %s\n", name.c_str(), value, unit, note);
}

}  // namespace bench
}  // namespace demi
