// Cattree: the standalone SPDK storage library OS (paper §6.4), over the simulated block
// device. PDPIX queues map onto an abstract log: open() returns a queue with a read cursor,
// push appends durably, pop reads at the cursor, seek/truncate move the cursor and GC the log.
// Pushes and pops wait as qtokens in their queue's FIFO (LibOS::PendingOps), served by the
// storage engine; each PollOnce runs the fast path, which polls the disk, then serves the
// queues whose I/O completed. Network calls return kNotSupported — pair with Catnip/Catmint for the integrated
// libOSes.

#ifndef SRC_LIBOSES_CATTREE_H_
#define SRC_LIBOSES_CATTREE_H_

#include <memory>
#include <optional>
#include <unordered_map>

#include "src/core/libos.h"
#include "src/liboses/storage_queue_engine.h"

namespace demi {

class Cattree final : public LibOS {
 public:
  Cattree(SimBlockDevice& disk, Clock& clock);
  ~Cattree() override;

  Result<QueueDesc> Socket(SocketType type) override { return Status::kNotSupported; }
  [[nodiscard]] Status Bind(QueueDesc, SocketAddress) override { return Status::kNotSupported; }
  [[nodiscard]] Status Listen(QueueDesc, int) override { return Status::kNotSupported; }
  Result<QToken> Accept(QueueDesc) override { return Status::kNotSupported; }
  Result<QToken> Connect(QueueDesc, SocketAddress) override { return Status::kNotSupported; }

  Result<QueueDesc> Open(std::string_view path) override;
  [[nodiscard]] Status Seek(QueueDesc qd, uint64_t offset) override;
  [[nodiscard]] Status Truncate(QueueDesc qd, uint64_t offset) override;
  [[nodiscard]] Status Close(QueueDesc qd) override;
  Result<QToken> Push(QueueDesc qd, const Sgarray& sga) override;
  Result<QToken> Pop(QueueDesc qd) override;

  StorageQueueEngine& storage() { return storage_; }
  // Open queues, and closed ones whose I/O is still on the device.
  size_t num_queues() const { return queues_.size(); }

 private:
  // LibOS reads queues_ and calls NextResult and WaitEvent; CloseQueue, CloseOnDevice.
  friend class LibOS;

  struct QueueState {
    bool closing = false;  // set by Close: the queue is gone to PDPIX (LibOS::CloseQueue)
    PendingOps pending;    // pushes and pops, oldest first
    std::unique_ptr<StorageQueueEngine::File> file;
  };

  void FastPath(TimeNs now) override;
  std::optional<QResult> NextResult(QueueState& q, OpCode op) {
    return storage_.NextResult(*q.file, op, q.closing);
  }
  WaitList& WaitEvent(QueueState& q, OpCode op) { return storage_.WaitEvent(*q.file, op); }
  size_t CloseOnDevice(QueueState& q) { return storage_.CloseFile(*q.file); }

  StorageQueueEngine storage_;
  SimBlockDevice* disk_;  // external device: tracer detached at destruction
  std::unordered_map<QueueDesc, QueueState> queues_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_CATTREE_H_
