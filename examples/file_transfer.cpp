// Bulk zero-copy transfer over Catnip TCP into a Cattree log: the sender pushes a file as large
// sgarray segments; the receiver splices the connection straight into its log partition
// (demi_splice semantics — no payload memcpy between the NIC rx path and the disk's gather DMA).
// Shows MSS segmentation, Cubic congestion-window growth, the splice appending what arrived
// while its previous append was on the disk, and the heap's UAF protection holding buffers
// until acked.
//
// Default: 8 MB, prints goodput. `--check`: 64 MB self-check mode — asserts the receiver heap
// stays flat across the transfer (zero-copy means no per-byte allocations), that the log never
// bounced a payload byte host-side, and that the log readback is byte-exact.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/liboses/catnip.h"
#include "src/storage/sim_block_device.h"

int main(int argc, char** argv) {
  using namespace demi;

  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  const size_t kFileSize = (check ? 64 : 8) * 1024 * 1024;
  constexpr size_t kChunk = 64 * 1024;

  MonotonicClock clock;
  SimNetwork network(LinkConfig{}, 13);
  SimBlockDevice::Config disk_cfg;
  disk_cfg.num_blocks = (kFileSize + kFileSize / 2) / disk_cfg.block_size;  // 1.5x for headers
  SimBlockDevice disk(disk_cfg, clock);
  const Ipv4Addr tx_ip = Ipv4Addr::FromOctets(10, 0, 0, 1);
  const Ipv4Addr rx_ip = Ipv4Addr::FromOctets(10, 0, 0, 2);
  Catnip sender(network, Catnip::Config{MacAddr{0x1}, tx_ip, TcpConfig{}, nullptr}, clock);
  Catnip receiver(network, Catnip::Config{MacAddr{0x2}, rx_ip, TcpConfig{}, &disk}, clock);

  // Receiver: bind, listen, arm an accept.
  auto listen_sock = receiver.Socket(SocketType::kStream);
  if (receiver.Bind(*listen_sock, {rx_ip, 9090}) != Status::kOk ||
      receiver.Listen(*listen_sock, 4) != Status::kOk) {
    std::fprintf(stderr, "listen failed\n");
    return 1;
  }
  auto accept_qt = receiver.Accept(*listen_sock);

  // Duet: each side's waits pump the other (PollOnce is non-blocking, so this can't recurse).
  sender.SetExternalPump([&] { receiver.PollOnce(); });
  receiver.SetExternalPump([&] { sender.PollOnce(); });

  auto sock = sender.Socket(SocketType::kStream);
  auto connect_qt = sender.Connect(*sock, {rx_ip, 9090});
  auto conn = sender.Wait(*connect_qt);
  if (!conn.ok() || conn->status != Status::kOk) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  // The server-side accept completes when the handshake's final ACK lands; pump until then.
  while (!receiver.IsDone(*accept_qt)) {
    receiver.PollOnce();
    sender.PollOnce();
  }
  auto accepted = receiver.TryTake(*accept_qt);
  if (!accepted.ok() || accepted->status != Status::kOk) {
    std::fprintf(stderr, "accept failed\n");
    return 1;
  }

  // Receiver: splice the connection into the log — every popped view goes to the disk's gather
  // DMA untouched, and each append takes what arrived while the previous one was on the disk.
  auto file_qd = receiver.Open("transfer");
  auto splice_qt = receiver.Splice(accepted->new_qd, *file_qd);
  if (!file_qd.ok() || !splice_qt.ok()) {
    std::fprintf(stderr, "splice setup failed\n");
    return 1;
  }

  const TimeNs start = clock.Now();
  size_t pushed = 0;
  size_t reserved_after_warmup = 0;
  constexpr size_t kPipelineSlack = 2 * 1024 * 1024;
  for (size_t off = 0; off < kFileSize; off += kChunk) {
    void* c = sender.DmaMalloc(kChunk);
    if (c == nullptr) {
      std::fprintf(stderr, "sender heap exhausted at %zu MB\n", off >> 20);
      return 1;
    }
    std::memset(c, static_cast<int>((off / kChunk) & 0xFF), kChunk);
    auto push = sender.Push(*sock, Sgarray::Of(c, kChunk));
    sender.DmaFree(c);  // UAF protection: the stack holds each chunk until acked
    if (!push.ok()) {
      std::fprintf(stderr, "push failed at %zu MB\n", off >> 20);
      return 1;
    }
    pushed += kChunk;
    // Pace the producer against the splice: run both stacks until the log has absorbed all but
    // a pipeline's worth of what we pushed. This is what overlaps disk appends with
    // transmission (and bounds every queue in between).
    while (receiver.storage()->log().tail() + kPipelineSlack < pushed) {
      sender.PollOnce();
      receiver.PollOnce();
    }
    // Snapshot the receiver heap once the splice pipeline is warmed up (pools populated, batch
    // ring full); zero-copy means it must not grow past this point however much more we stream.
    if (reserved_after_warmup == 0 && pushed >= kFileSize / 4) {
      reserved_after_warmup = receiver.allocator().GetStats().bytes_reserved;
    }
  }
  if (sender.Close(*sock) != Status::kOk) {  // FIN: the splice completes at end of stream
    std::fprintf(stderr, "close failed\n");
    return 1;
  }

  auto spliced = receiver.Wait(*splice_qt, 30 * kSecond);
  if (!spliced.ok() || spliced->status != Status::kOk || spliced->bytes != kFileSize) {
    std::fprintf(stderr, "splice failed (status %d, %llu bytes)\n",
                 spliced.ok() ? static_cast<int>(spliced->status) : -1,
                 spliced.ok() ? static_cast<unsigned long long>(spliced->bytes) : 0ULL);
    return 1;
  }
  const DurationNs elapsed = clock.Now() - start;

  const auto& log_stats = receiver.storage()->log().stats();
  const double gbps = static_cast<double>(kFileSize) * 8.0 / static_cast<double>(elapsed);
  std::printf("spliced %zu MB net->disk in %.2f ms: %.2f Gbps goodput\n", kFileSize >> 20,
              static_cast<double>(elapsed) / 1e6, gbps);
  std::printf("sender sent %llu TCP segments; log wrote %llu SG records, bounced %llu bytes\n",
              static_cast<unsigned long long>(sender.tcp().stats().segments_tx),
              static_cast<unsigned long long>(log_stats.sg_appends),
              static_cast<unsigned long long>(log_stats.bounce_bytes));

  if (!check) {
    return 0;
  }

  // --check: the zero-copy claims, verified.
  const size_t reserved_at_end = receiver.allocator().GetStats().bytes_reserved;
  if (reserved_at_end != reserved_after_warmup) {
    std::fprintf(stderr, "FAIL: receiver heap grew %zu -> %zu bytes across the transfer\n",
                 reserved_after_warmup, reserved_at_end);
    return 1;
  }
  if (log_stats.bounce_bytes != 0) {
    std::fprintf(stderr, "FAIL: %llu payload bytes were flattened host-side\n",
                 static_cast<unsigned long long>(log_stats.bounce_bytes));
    return 1;
  }

  // Byte-exact log readback: a fresh cursor over the same log must replay the file exactly.
  auto replay_qd = receiver.Open("transfer");
  size_t verified = 0;
  while (verified < kFileSize) {
    auto pop = receiver.Pop(*replay_qd);
    auto r = receiver.Wait(*pop, 10 * kSecond);
    if (!r.ok() || r->status != Status::kOk) {
      std::fprintf(stderr, "FAIL: log readback ended early at %zu/%zu bytes\n", verified,
                   kFileSize);
      return 1;
    }
    for (uint32_t i = 0; i < r->sga.num_segs; i++) {
      const uint8_t* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
      for (uint32_t b = 0; b < r->sga.segs[i].len; b++) {
        const uint8_t want = static_cast<uint8_t>(((verified + b) / kChunk) & 0xFF);
        if (p[b] != want) {
          std::fprintf(stderr, "FAIL: byte %zu: got 0x%02x want 0x%02x\n", verified + b, p[b],
                       want);
          return 1;
        }
      }
      verified += r->sga.segs[i].len;
    }
    receiver.FreeSga(r->sga);
  }
  std::printf("check OK: flat heap (%zu bytes reserved), zero bounce, byte-exact readback\n",
              reserved_at_end);
  return 0;
}
