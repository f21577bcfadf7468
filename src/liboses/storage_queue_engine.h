// StorageQueueEngine: the Cattree queue logic (paper §6.4), shared between the standalone
// Cattree libOS and the integrated network×storage libOSes (Catnip×Cattree, Catmint×Cattree).
//
// Maps PDPIX queues onto the abstract log: each open() returns a queue with its own read
// cursor; push appends records (durable on completion; the result carries the record's offset,
// which truncate takes, and the log's free bytes), pops read successive records at the cursor,
// seek/truncate move the cursor and free the log below an offset. A file queue's pushes and
// pops wait like network ops, as qtokens in the queue's LibOS::PendingOps FIFO: the libOS's
// NextResult and WaitEvent call the engine's. The queue completes them oldest first, each in
// the poll that drains its I/O. A push hands its append to the log as soon as its segments are
// pinned, so the log's group commit writes the pushes queued meanwhile, from every file, as one
// write. A pop reads when it reaches the head; a push queued behind a pop (or a splice) waits
// for it, and starts when it reaches the head itself.

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

  // Drains the disk on `now`, the fast path's poll time. The libOS serves its woken queues
  // right after, so the completion that finishes an op's I/O completes the op in the same poll.
  void Poll(TimeNs now) { log_.PollDevice(now); }

  // One open file queue: its read cursor, the read of its oldest op when that is a pop, and
  // its queued pushes, oldest first, each with the segments it pinned and its own append.
  struct File {
    uint64_t cursor = 0;
    LogDevice::Io read;
    struct Push {
      std::vector<Buffer> segs;
      Status status = Status::kOk;  // kNoMemory: the heap could not pin them
      LogDevice::Io append;         // kIdle until the log has it
    };
    std::deque<Push> pushes;
  };

  std::unique_ptr<File> OpenFile() {
    auto file = std::make_unique<File>();
    file->cursor = log_.head();
    return file;
  }

  // Pins the segments of push `qt` on queue `qd` at Push time: PDPIX lets the application free
  // them at once. The libOS queues the push right after. The append goes to the log now unless
  // the push queues behind a read (`behind_read`: a pop or a splice on this queue) or behind a
  // push the log does not have yet; it then starts once it reaches the head of the queue.
  void PinPush(File& file, const Sgarray& sga, QueueDesc qd, QToken qt, bool behind_read) {
    const bool held = behind_read || (!file.pushes.empty() &&
                                       file.pushes.back().append.state == LogDevice::Io::kIdle);
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
    if (!held) {
      StartAppend(push);
    }
  }

  // The result of `file`'s oldest op, a push or a pop: it starts the op's append or read if
  // the log does not have it yet, and returns nullopt while that I/O runs (the op waits on
  // WaitEvent). Once the queue is `closing`, an op that has not reached the device completes
  // with kCancelled.
  std::optional<QResult> NextResult(File& file, OpCode op, bool closing) {
    // demilint: fastpath
    LogDevice::Io& io = op == OpCode::kPop ? file.read : file.pushes.front().append;
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
        StartAppend(file.pushes.front());  // it queued behind a read
      }
    }
    if (io.state == LogDevice::Io::kBusy && !(closing && log_.CancelAppend(io))) {
      return std::nullopt;
    }
    io.state = LogDevice::Io::kIdle;
    r.status = io.status;
    if (op == OpCode::kPush) {
      r.offset = io.offset;
      r.bytes = log_.FreeBytes();
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

  WaitList& WaitEvent(File& file, OpCode op) {
    return op == OpCode::kPop ? file.read.done : file.pushes.front().append.done;
  }

  // Close, once NextResult has completed the closing queue's oldest ops that were done or never
  // started: drops the pushes whose append never reached the device, and returns how many
  // pushes are left, oldest first — those in the write in flight, which complete with its result.
  size_t CloseFile(File& file) {
    // Appends reach the log in queue order, so the pushes in the write in flight come first.
    size_t on_device = 0;
    for (File::Push& push : file.pushes) {
      if (push.append.state == LogDevice::Io::kBusy && !log_.CancelAppend(push.append)) {
        on_device++;
      }
    }
    while (file.pushes.size() > on_device) {
      file.pushes.pop_back();
    }
    return on_device;
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
  // The pinned segments go to the log as one slice list; the append copies them once, straight
  // into the block image the device writes.
  void StartAppend(File::Push& push) {
    std::array<std::span<const uint8_t>, kSgaMaxSegments> slices;
    for (size_t i = 0; i < push.segs.size(); i++) {
      slices[i] = {push.segs[i].data(), push.segs[i].size()};
    }
    log_.StartAppend(push.append, {slices.data(), push.segs.size()});
  }

  LogDevice log_;
  PoolAllocator& alloc_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
