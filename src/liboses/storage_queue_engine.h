// StorageQueueEngine: the Cattree queue logic (paper §6.4), shared between the standalone
// Cattree libOS and the integrated network×storage libOSes (Catnip×Cattree, Catmint×Cattree).
//
// Maps PDPIX queues onto the abstract log: each open() returns a queue with its own read
// cursor; push appends records (durable on completion), pops read successive records at the
// cursor one read at a time, seek/truncate move the cursor and garbage-collect.

#ifndef SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
#define SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/libos.h"
#include "src/storage/log_device.h"

namespace demi {

class StorageQueueEngine {
 public:
  // `partition`/`epoch` select the block range and shared allocation epoch this engine's log
  // owns (multi-worker Catnip×Cattree; see src/storage/partitioned_log.h). The defaults give
  // the classic whole-device single-worker log.
  StorageQueueEngine(SimBlockDevice& disk, Scheduler& sched, PoolAllocator& alloc,
                     QTokenTable& tokens, const LogPartition& partition = {},
                     std::atomic<uint64_t>* epoch = nullptr)
      : log_(disk, sched, partition, epoch), sched_(sched), alloc_(alloc), tokens_(tokens) {}

  LogDevice& log() { return log_; }
  // `now` is the fast path's poll time (Scheduler::poll_time).
  void Poll(TimeNs now) { log_.PollDevice(now); }

  // The libOS owns qtoken allocation and queue bookkeeping.

  // Appends the sga as one record; completes `qt` when durable. The application's buffers are
  // pinned HERE, synchronously at push time — a coroutine body only runs at its first resume,
  // by which point PDPIX allows the app to have freed the memory (UAF semantics).
  Task<void> PushOp(QToken qt, const Sgarray& sga) {
    std::vector<Buffer> pinned;
    pinned.reserve(sga.num_segs);
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      Buffer buf = Buffer::TryFromApp(alloc_, sga.segs[i].buf, sga.segs[i].len);
      if (!buf.valid()) {
        return FailOp(qt, Status::kNoMemory);  // heap exhausted: ENOMEM via the qtoken
      }
      buf.NoteOwner(/*qd=*/-1, qt);  // DemiSan: the engine does not know the qd, the qt suffices
      pinned.push_back(std::move(buf));
    }
    return PushOpPinned(qt, std::move(pinned));  // parameters move into the frame immediately
  }

  // One open file queue: its read cursor and its pops, oldest first. The libOS's queue and the
  // read fiber share it, so a Close with a read in flight frees nothing the read still touches.
  struct File {
    uint64_t cursor = 0;
    std::deque<QToken> pops;
    bool reading = false;  // a read fiber is serving `pops`; the front one's read is in flight
  };

  std::shared_ptr<File> OpenFile() {
    auto file = std::make_shared<File>();
    file->cursor = log_.head();
    return file;
  }

  // Queues a pop. One read at a time serves a file's pops, oldest first, each from the cursor
  // the previous read left, so pops issued back to back return successive records.
  void Pop(const std::shared_ptr<File>& file, QToken qt) {
    file->pops.push_back(qt);
    if (!file->reading) {
      file->reading = true;
      sched_.Spawn(ReadFiber(file));
    }
  }

  // The queue is closing: its pops complete with kCancelled now, except one whose read is in
  // flight, which still completes with that read's record.
  void Close(File& file) {
    const size_t keep = std::min<size_t>(file.reading ? 1 : 0, file.pops.size());
    for (size_t i = keep; i < file.pops.size(); i++) {
      QResult qr;
      qr.status = Status::kCancelled;
      tokens_.Complete(file.pops[i], qr);
    }
    file.pops.resize(keep);
  }

  [[nodiscard]] Status Seek(File& file, uint64_t offset) {
    if (offset < log_.head() || offset > log_.tail()) {
      return Status::kInvalidArgument;
    }
    file.cursor = offset;
    return Status::kOk;
  }

  [[nodiscard]] Status Truncate(uint64_t offset) { return log_.Truncate(offset); }

 private:
  // Completes `qt` with a failure status on the next scheduler round (ops are spawned, so the
  // failure must still arrive asynchronously through the qtoken like any other completion).
  Task<void> FailOp(QToken qt, Status status) {
    QResult qr;
    qr.status = status;
    tokens_.Complete(qt, qr);
    co_return;
  }

  Task<void> PushOpPinned(QToken qt, std::vector<Buffer> pinned) {
    // The pinned segments go to the log as one slice list; Append copies them once, straight
    // into the block image the device writes.
    std::vector<std::span<const uint8_t>> slices;
    slices.reserve(pinned.size());
    for (const Buffer& b : pinned) {
      slices.emplace_back(b.data(), b.size());
    }
    auto result = co_await log_.Append(slices);
    QResult qr;
    qr.status = result.error();
    tokens_.Complete(qt, qr);
  }

  // Serves `file`'s pops in turn: reads the record at the cursor, completes the oldest pop with
  // an app-owned copy of its payload and advances the cursor; exits once no pop is left.
  Task<void> ReadFiber(std::shared_ptr<File> file) {
    while (!file->pops.empty()) {
      auto result = co_await log_.Read(file->cursor, alloc_);
      const QToken qt = file->pops.front();
      file->pops.pop_front();
      QResult qr;
      if (!result.ok()) {
        qr.status = result.error();
        tokens_.Complete(qt, qr);
        continue;
      }
      file->cursor = result->next_cursor;
      // The read's view shares its allocation with header and block bytes, and the app frees
      // what it pops, so the payload is copied once into a whole allocation of its own.
      Buffer buf = Buffer::TryAllocate(alloc_, result->payload.size());
      if (!buf.valid()) {
        qr.status = Status::kNoMemory;  // cursor already advanced past a durable record; the
        tokens_.Complete(qt, qr);       // caller may Seek back and re-pop once memory frees up
        continue;
      }
      if (!result->payload.empty()) {
        std::memcpy(buf.mutable_data(), result->payload.data(), result->payload.size());
      }
      qr.sga = BufferToAppSga(std::move(buf));
      tokens_.Complete(qt, qr);
    }
    file->reading = false;
  }

  LogDevice log_;
  Scheduler& sched_;
  PoolAllocator& alloc_;
  QTokenTable& tokens_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
