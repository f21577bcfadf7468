// Figure 11 reproduction: MiniKv (Redis-substitute) GET/SET throughput, in-memory and with
// durable persistence (append-only file, fsync per SET).
//
// Paper result: in-memory, Catmint ~2x unmodified Redis and Catnip ~+20%, while Catnap loses
// 75-80% (polling trades throughput for latency on the kernel path). With persistence, Linux
// throughput collapses (synchronous ext4 fsync), Catnap's polling *helps*, and
// Catnip/Catmint×Cattree stay within ~10% of their own in-memory rate — the headline: durable
// Demikernel ~= in-memory Linux. Required shape here: same ordering and a small
// persistent-vs-in-memory gap for the integrated libOSes only.

#include <atomic>
#include <thread>

#include "bench/bench_common.h"
#include "src/apps/minikv.h"
#include "src/faults/fault_injector.h"

namespace demi {
namespace bench {
namespace {

constexpr uint64_t kOps = 20000;
constexpr size_t kValueSize = 64;
constexpr uint64_t kNumKeys = 10000;
constexpr size_t kPipeline = 16;

// Pipelined closed-loop SETs (or GETs) of uniform keys, in kops/s.
double Kops(Transport& link, bool sets, uint64_t ops = kOps) {
  KvCodec kv({.num_keys = kNumKeys, .value_size = kValueSize, .do_sets = sets});
  return RunLoad(link, kv, {.operations = ops, .window = kPipeline}).OpsPerSec() / 1e3;
}

struct Row {
  double get_kops = 0;
  double set_kops = 0;
  double persist_set_kops = 0;
};

Row PosixRow() {
  Row row;
  for (int persist = 0; persist < 2; persist++) {
    std::atomic<bool> stop{false};
    const SocketAddress addr = Loopback(UniquePort());
    char path[] = "/tmp/demi_fig11_XXXXXX";
    const int fd = ::mkstemp(path);
    ::close(fd);
    std::atomic<bool> up{false};
    std::thread server([&] {
      MiniKvOptions opts{addr};
      opts.persist = persist == 1;
      opts.aof_path = path;
      up = true;
      RunPosixMiniKvServer(opts, stop, nullptr);
    });
    while (!up) {
    }
    {
      PosixTransport link(SocketType::kStream, {addr});
      if (persist == 0) {
        row.set_kops = Kops(link, true);
        row.get_kops = Kops(link, false);
      } else {
        row.persist_set_kops = Kops(link, true, kOps / 10);  // real-fs fsync per SET is slow
      }
    }
    stop = true;
    server.join();
    ::unlink(path);
  }
  return row;
}

// Generic duet row over a server/client libOS pair.
Row DuetRow(LibOS& server_os, LibOS& client_os, SocketAddress addr, bool has_storage,
            uint64_t persist_ops, const char* aof_path) {
  Row row;
  {
    MiniKvOptions opts{addr};
    MiniKvServerApp app(server_os, opts);
    client_os.SetExternalPump([&] {
      server_os.PollOnce();
      app.Pump();
    });
    {
      PdpixTransport link(client_os, SocketType::kStream, {addr});
      row.set_kops = Kops(link, true);
      row.get_kops = Kops(link, false);
    }
    client_os.SetExternalPump(nullptr);
  }
  if (has_storage) {
    SocketAddress paddr = addr;
    paddr.port++;
    MiniKvOptions opts{paddr};
    opts.persist = true;
    opts.aof_path = aof_path;
    MiniKvServerApp app(server_os, opts);
    client_os.SetExternalPump([&] {
      server_os.PollOnce();
      app.Pump();
    });
    {
      PdpixTransport link(client_os, SocketType::kStream, {paddr});
      row.persist_set_kops = Kops(link, true, persist_ops);
    }
    client_os.SetExternalPump(nullptr);
  }
  return row;
}

void PrintRow(const char* name, const Row& row, const char* note) {
  std::printf("%-28s %12.1f %12.1f %14.1f  %s\n", name, row.get_kops, row.set_kops,
              row.persist_set_kops, note);
}

}  // namespace

void Main() {
  PrintHeader("Figure 11: MiniKv (Redis-substitute) throughput, 64 B values",
              "Catmint ~2x Redis, Catnip ~+20%, Catnap -75%; with fsync-per-SET "
              "persistence Linux collapses while Catnip/Catmint x Cattree stay within ~10%",
              /*latency_columns=*/false);
  std::printf("%-28s %12s %12s %14s  %s\n", "system", "GET kops/s", "SET kops/s",
              "SET+AOF kops/s", "note");

  PrintRow("Linux (POSIX MiniKv)", PosixRow(), "kernel sockets + ext4 fsync");

  {
    CatnapPair pair;
    char path[] = "/tmp/demi_fig11_catnap_XXXXXX";
    const int fd = ::mkstemp(path);
    ::close(fd);
    Row row = DuetRow(*pair.server, *pair.client, Loopback(UniquePort()), true, kOps / 10, path);
    ::unlink(path);
    PrintRow("Catnap", row, "polled kernel sockets");
  }
  {
    MonotonicClock clock;
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    CatnipPair pair(LinkConfig{}, &disk);
    // Opt-in chaos: DEMI_FAULT_PLAN / DEMI_FAULT_SEED arm an injector so the bench doubles
    // as a throughput-under-faults probe (docs/FAULTS.md). Unset env = plain Figure 11 run.
    FaultInjector faults;
    if (auto plan = FaultPlan::FromEnv(); plan.has_value() && plan->Any()) {
      faults.Arm(*plan);
      pair.net.SetFaultInjector(&faults);
      disk.SetFaultInjector(&faults);
      faults.RegisterMetrics(pair.server->metrics());
      std::printf("(chaos armed: %s)\n", plan->ToString().c_str());
    }
    Row row = DuetRow(*pair.server, *pair.client, {kServerIp, 5701}, true, kOps / 2, "aof");
    PrintRow("Catnip (x Cattree for AOF)", row, "userspace TCP + SPDK log");
    const uint64_t injected = faults.GetStats().disk_io_errors + faults.GetStats().disk_delays +
                              faults.GetStats().frames_corrupted + faults.GetStats().frames_dropped;
    if (injected > 0) {
      std::printf("(chaos: %llu faults injected, run still completed)\n",
                  static_cast<unsigned long long>(injected));
    }
  }
  {
    MonotonicClock clock;
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    CatmintPair pair(LinkConfig{}, &disk);
    Row row = DuetRow(*pair.server, *pair.client, {kServerIp, 5703}, true, kOps / 2, "aof");
    PrintRow("Catmint (x Cattree for AOF)", row, "RDMA messaging + SPDK log");
  }
}

}  // namespace bench
}  // namespace demi

int main() {
  demi::bench::Main();
  return 0;
}
