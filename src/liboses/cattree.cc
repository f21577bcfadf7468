#include "src/liboses/cattree.h"

#include "src/memory/dma.h"

namespace demi {

Cattree::Cattree(SimBlockDevice& disk, Clock& clock)
    : LibOS("cattree", clock, NullDmaRegistrar::Global()),
      storage_(disk, sched_, alloc_),
      disk_(&disk) {
  disk_->RegisterMetrics(metrics_);
  disk_->SetTracer(&tracer_);
  storage_.log().RegisterMetrics(metrics_);
  sched_.Spawn(FastPathFiber());
}

Cattree::~Cattree() {
  shutdown_ = true;
  disk_->SetTracer(nullptr);  // the external device may outlive this libOS's tracer
  sched_.Shutdown();  // release fiber-held buffers while the heap is alive
}

Task<void> Cattree::FastPathFiber() {
  while (!shutdown_) {
    // Poll SPDK completion queues on the poll's time (§6.4), then complete the pushes and pops
    // whose I/O they finished.
    storage_.Poll(sched_.poll_time());
    ServeHookedQueues(*this);
    co_await Scheduler::Yield{};
  }
}

Cattree::QueueState* Cattree::Find(QueueDesc qd) {
  auto it = queues_.find(qd);
  return it == queues_.end() ? nullptr : &it->second;
}

Result<QueueDesc> Cattree::Open(std::string_view path) {
  const QueueDesc qd = next_qd_++;
  queues_[qd].file = storage_.OpenFile();
  return qd;
}

Status Cattree::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  return storage_.Seek(*q->file, offset);
}

Status Cattree::Truncate(QueueDesc qd, uint64_t offset) {
  if (Find(qd) == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  return storage_.Truncate(offset);
}

Status Cattree::Close(QueueDesc qd) {
  if (Find(qd) == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  CloseQueue(*this, queues_, qd);
  return Status::kOk;
}

Result<QToken> Cattree::Push(QueueDesc qd, const Sgarray& sga) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  storage_.PinPush(*q->file, sga, qd, qt, QueuedBehindRead(*q));
  return SubmitPending(*this, qd, *q, PendingOp{qt, OpCode::kPush});
}

Result<QToken> Cattree::Pop(QueueDesc qd) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  return SubmitPending(*this, qd, *q, OpCode::kPop);
}

}  // namespace demi
