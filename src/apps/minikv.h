// MiniKv: Redis-substitute in-memory key-value server (DESIGN.md §2, Figure 11).
//
// Mirrors the structure of the paper's Redis port (§7.5): a single event loop over wait_any,
// values stored in the DMA-capable heap and served zero-copy (Redis's keys/values are immutable
// — no update in place — so UAF protection alone makes zero-copy GETs/SETs safe, §4.1), and an
// optional append-only file: every SET and every DEL of a live key is pushed to a storage
// queue and fsync'd before the reply, the Figure 11 persistence configuration. The reply waits
// on the push's qtoken, not in a Wait, so the server serves other requests (and the log writes
// the SETs queued meanwhile together) until it completes; each connection keeps its replies in
// request order. As in Redis, the store applies a SET at once, so a GET on another connection
// can read its value before the SET is durable; no client is told a SET succeeded before it
// is. The server redeems every qtoken it is handed, reply pushes included. As Redis's
// BGREWRITEAOF does, it rewrites the AOF from the poll loop once it has grown well past the
// live set — one SET record per live key — and truncates the log behind the rewrite, so the
// circular log reuses the space (docs/STORAGE.md). Its benchmark
// client (the redis-benchmark equivalent) is the load driver's KvCodec
// (src/apps/load_driver.h).
//
// Wire protocol (length-framed so it runs over byte streams and message transports alike):
//   request  := [u32 frame_len][u8 op][u16 klen][u32 vlen][key][value]
//   response := [u32 frame_len][u8 status][u32 vlen][value]

#ifndef SRC_APPS_MINIKV_H_
#define SRC_APPS_MINIKV_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/libos.h"

namespace demi {

class ShardGroup;

enum class KvOp : uint8_t { kGet = 1, kSet = 2, kDel = 3 };
enum class KvStatus : uint8_t { kOk = 0, kNotFound = 1, kError = 2 };

// Serialization helpers (shared by server, clients and benches).
size_t KvEncodeRequest(KvOp op, std::string_view key, std::string_view value, uint8_t* out,
                       size_t out_cap);
size_t KvEncodeResponse(KvStatus status, std::string_view value, uint8_t* out, size_t out_cap);

struct KvRequestView {
  KvOp op;
  std::string_view key;
  std::string_view value;
};
// Parses one complete frame (without the leading u32 length); returns false on malformed input.
bool KvParseRequest(std::span<const uint8_t> frame, KvRequestView* out);
struct KvResponseView {
  KvStatus status;
  std::string_view value;
};
bool KvParseResponse(std::span<const uint8_t> frame, KvResponseView* out);

struct MiniKvOptions {
  SocketAddress listen;
  bool persist = false;          // append-only file, fsync per SET
  std::string aof_path = "minikv.aof";
};

struct MiniKvStats {
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t dels = 0;
  uint64_t hits = 0;
  uint64_t connections = 0;
  uint64_t aof_failures = 0;  // SETs and DELs answered kError: their AOF append failed
  uint64_t aof_rewrites = 0;  // AOF rewrites completed (each truncated the AOF behind it)
};

// Pumpable PDPIX MiniKv server (see EchoServerApp for the pump pattern).
class MiniKvServerApp {
 public:
  MiniKvServerApp(LibOS& os, const MiniKvOptions& options);
  ~MiniKvServerApp();

  size_t Pump();  // non-blocking; returns requests served
  const MiniKvStats& stats() const { return stats_; }

 private:
  struct Impl;
  LibOS& os_;
  MiniKvOptions options_;
  MiniKvStats stats_;
  std::unique_ptr<Impl> impl_;
};

// PDPIX MiniKv server: runs over any Demikernel libOS until `stop`.
void RunMiniKvServer(LibOS& os, const MiniKvOptions& options, std::atomic<bool>& stop,
                     MiniKvStats* stats = nullptr);

// Multi-worker MiniKv over a ShardGroup: one independent store per shard, keys partitioned by
// connection placement (RSS pins each client connection — and so its keyspace — to one shard,
// the redis-cluster model). Same start/stop contract as StartShardedEchoServer.
void StartShardedMiniKvServer(ShardGroup& group, const MiniKvOptions& options,
                              std::vector<MiniKvStats>* per_shard = nullptr);

// POSIX MiniKv server (select-based event loop): the "unmodified Redis on Linux" stand-in.
void RunPosixMiniKvServer(const MiniKvOptions& options, std::atomic<bool>& stop,
                          MiniKvStats* stats = nullptr);

}  // namespace demi

#endif  // SRC_APPS_MINIKV_H_
