// TxnStore substitute (DESIGN.md §2, Figure 12): a replicated, transactional key-value store
// driven by a YCSB-T workload-F client (read-modify-write transactions; YcsbCodec in
// src/apps/load_driver.h).
//
// Reproduces the paper's §7.6 setup: the weakly consistent quorum-write protocol — every GET
// reads one replica, every PUT replicates to all three and waits for a write quorum — with
// 64 B keys, 700 B values and a Zipf key distribution. Replica servers are MiniKv instances
// (the storage engine is identical; the protocol above it is what differs).
//
// Also provides the paper's comparison point: a *custom raw-RDMA* KV transport built directly
// on SimRdmaDevice with one QP per connection and copy-in/copy-out buffers — the naive RDMA
// messaging design TxnStore shipped with, which Catmint outperforms (§7.6).

#ifndef SRC_APPS_TXNSTORE_H_
#define SRC_APPS_TXNSTORE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/apps/load_driver.h"
#include "src/apps/minikv.h"
#include "src/netsim/sim_rdma.h"

namespace demi {

// --- Custom raw-RDMA KV transport (the paper's TxnStore-RDMA baseline) ---

// Serves the KV protocol directly over SimRdmaDevice. One QP per client, request and response
// buffers copied in and out (the "serious changes would be needed for zero-copy" design the
// paper describes).
class RawRdmaKvReplicaApp {
 public:
  RawRdmaKvReplicaApp(SimNetwork& network, MacAddr mac, Clock& clock);
  ~RawRdmaKvReplicaApp();
  size_t PollOnce();  // serves any pending requests; returns requests served

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

void RunRawRdmaKvReplica(SimNetwork& network, MacAddr mac, Clock& clock,
                         std::atomic<bool>& stop);

// The client side of the same baseline, as a load-driver transport: one QP, and every Send is a
// whole call — copy the request in, post it, poll until its response arrives (running `pump`
// between polls, for co-located replicas), copy the response out. So a YCSB SET fan-out goes
// to the replicas one call at a time, with no pipelining.
class RawRdmaTransport final : public Transport {
 public:
  RawRdmaTransport(SimNetwork& network, MacAddr mac, Clock& clock, std::vector<MacAddr> replicas,
                   std::function<void()> pump = {});

  size_t peers() const override { return replicas_.size(); }
  Clock& clock() override { return clock_; }
  bool Send(size_t peer, std::span<const uint8_t> bytes) override;
  std::optional<size_t> Receive(DurationNs timeout, Inbox& inbox) override;

 private:
  SimRdmaDevice device_;
  MacAddr mac_;
  Clock& clock_;
  std::vector<MacAddr> replicas_;
  std::function<void()> pump_;
  std::vector<std::vector<uint8_t>> recv_bufs_;
  std::vector<uint8_t> tx_buf_;
  uint64_t next_req_ = 1;
  std::deque<std::pair<size_t, std::vector<uint8_t>>> responses_;  // copied out, oldest first
};

}  // namespace demi

#endif  // SRC_APPS_TXNSTORE_H_
