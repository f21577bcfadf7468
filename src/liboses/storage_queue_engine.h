// StorageQueueEngine: the Cattree queue logic (paper §6.4), shared between the standalone
// Cattree libOS and the integrated network×storage libOSes (Catnip×Cattree, Catmint×Cattree).
//
// Maps PDPIX queues onto the abstract log: each open() returns a queue with its own read
// cursor; push appends records (durable on completion), pops read successive records at the
// cursor, seek/truncate move the cursor and garbage-collect. A file queue's pushes and pops wait
// like network ops, as qtokens in the queue's LibOS::PendingOps FIFO: the libOS's NextResult and
// WaitEvent call the engine's. The queue serves them oldest first, one at a time; each starts
// its log I/O when it reaches the head and completes in the poll that drains that I/O.

#ifndef SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
#define SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_

#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
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
                     const LogPartition& partition = {}, std::atomic<uint64_t>* epoch = nullptr)
      : log_(disk, sched, partition, epoch), alloc_(alloc) {}

  LogDevice& log() { return log_; }

  // Drains the disk on `now`, the fast path's poll time. The libOS serves its hooked queues
  // right after, so the completion that finishes an op's I/O completes the op in the same poll.
  void Poll(TimeNs now) { log_.PollDevice(now); }

  // One open file queue: its read cursor, the log I/O of its oldest op, and the segments its
  // queued pushes pinned, oldest first.
  struct File {
    uint64_t cursor = 0;
    LogDevice::Io io;
    struct Push {
      std::vector<Buffer> segs;
      Status status = Status::kOk;  // kNoMemory: the heap could not pin them
    };
    std::deque<Push> pushes;
  };

  std::unique_ptr<File> OpenFile() {
    auto file = std::make_unique<File>();
    file->cursor = log_.head();
    return file;
  }

  // Pins the segments of push `qt` on queue `qd` at Push time: PDPIX lets the application free
  // them at once. The libOS queues the push right after.
  void PinPush(File& file, const Sgarray& sga, QueueDesc qd, QToken qt) {
    File::Push& push = file.pushes.emplace_back();
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      Buffer buf = Buffer::TryFromApp(alloc_, sga.segs[i].buf, sga.segs[i].len);
      if (!buf.valid()) {
        push.segs.clear();
        push.status = Status::kNoMemory;  // heap exhausted: ENOMEM via the qtoken
        return;
      }
      buf.NoteOwner(qd, qt);
      push.segs.push_back(std::move(buf));
    }
  }

  // The result of `file`'s oldest op, a push or a pop: it starts the op's append or read if
  // none is in flight, and returns nullopt while that I/O runs (the op waits on WaitEvent).
  // Once the queue is `closing`, an op that has not started completes with kCancelled.
  std::optional<QResult> NextResult(File& file, OpCode op, bool closing) {
    // demilint: fastpath
    LogDevice::Io& io = file.io;
    QResult r;
    if (io.state == LogDevice::Io::kIdle) {
      if (closing || (op == OpCode::kPush && file.pushes.front().status != Status::kOk)) {
        r.status = closing ? Status::kCancelled : file.pushes.front().status;
        if (op == OpCode::kPush) {
          file.pushes.pop_front();
        }
        return r;
      }
      if (op == OpCode::kPop) {
        log_.StartRead(io, file.cursor, alloc_);
      } else {
        // The pinned segments go to the log as one slice list; the append copies them once,
        // straight into the block image the device writes.
        const std::vector<Buffer>& segs = file.pushes.front().segs;
        std::array<std::span<const uint8_t>, kSgaMaxSegments> slices;
        for (size_t i = 0; i < segs.size(); i++) {
          slices[i] = {segs[i].data(), segs[i].size()};
        }
        log_.StartAppend(io, {slices.data(), segs.size()});
      }
    }
    if (io.state == LogDevice::Io::kBusy) {
      return std::nullopt;
    }
    io.state = LogDevice::Io::kIdle;
    r.status = io.status;
    if (op == OpCode::kPush) {
      file.pushes.pop_front();  // durable: the pinned segments go back to the heap
      return r;
    }
    if (r.status != Status::kOk) {
      return r;
    }
    file.cursor = io.record.next_cursor;
    // The read's view shares its allocation with header and block bytes, and the app frees
    // what it pops, so the payload is copied once into a whole allocation of its own.
    const Buffer payload = std::move(io.record.payload);
    Buffer buf = Buffer::TryAllocate(alloc_, payload.size());
    if (!buf.valid()) {
      r.status = Status::kNoMemory;  // cursor already advanced past a durable record; the
      return r;                      // caller may Seek back and re-pop once memory frees up
    }
    if (!payload.empty()) {
      std::memcpy(buf.mutable_data(), payload.data(), payload.size());
    }
    r.sga = BufferToAppSga(std::move(buf));
    return r;
    // demilint: end-fastpath
  }

  Event& WaitEvent(File& file) { return file.io.done; }

  [[nodiscard]] Status Seek(File& file, uint64_t offset) {
    if (offset < log_.head() || offset > log_.tail()) {
      return Status::kInvalidArgument;
    }
    file.cursor = offset;
    return Status::kOk;
  }

  [[nodiscard]] Status Truncate(uint64_t offset) { return log_.Truncate(offset); }

 private:
  LogDevice log_;
  PoolAllocator& alloc_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
