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
}

Cattree::~Cattree() {
  disk_->SetTracer(nullptr);  // the external device may outlive this libOS's tracer
}

void Cattree::FastPath(TimeNs now) {
  // Poll SPDK completion queues on the poll's time (§6.4), then complete the pushes and pops
  // whose I/O they finished.
  storage_.Poll(now);
  ServeHookedQueues(*this);
}


Result<QueueDesc> Cattree::Open(std::string_view path) {
  const QueueDesc qd = next_qd_++;
  queues_[qd].file = storage_.OpenFile();
  return qd;
}

Status Cattree::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  return storage_.Seek(*q->file, offset);
}

Status Cattree::Truncate(QueueDesc qd, uint64_t offset) {
  if (FindQueue(*this, qd) == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  return storage_.Truncate(offset);
}

Status Cattree::Close(QueueDesc qd) {
  if (FindQueue(*this, qd) == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  CloseQueue(*this, qd);
  return Status::kOk;
}

Result<QToken> Cattree::Push(QueueDesc qd, const Sgarray& sga) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  storage_.PinPush(*q->file, sga, qd, qt, QueuedBehindRead(*q));
  return SubmitPending(*this, qd, *q, PendingOp{qt, OpCode::kPush});
}

Result<QToken> Cattree::Pop(QueueDesc qd) {
  QueueState* q = FindQueue(*this, qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  return SubmitPending(*this, qd, *q, OpCode::kPop);
}

}  // namespace demi
