#include "src/liboses/cattree.h"

#include "src/memory/dma.h"

namespace demi {

Cattree::Cattree(SimBlockDevice& disk, Clock& clock)
    : LibOS("cattree", clock, NullDmaRegistrar::Global()),
      storage_(disk, sched_, alloc_, tokens_),
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
    // Poll SPDK completion queues and wake blocked append/read coroutines (§6.4), on the
    // poll's time.
    storage_.Poll(sched_.poll_time());
    co_await Scheduler::Yield{};
  }
}

Result<QueueDesc> Cattree::Open(std::string_view path) {
  const QueueDesc qd = next_qd_++;
  queues_[qd] = storage_.OpenFile();
  return qd;
}

Status Cattree::Seek(QueueDesc qd, uint64_t offset) {
  auto it = queues_.find(qd);
  if (it == queues_.end()) {
    return Status::kBadQueueDescriptor;
  }
  return storage_.Seek(*it->second, offset);
}

Status Cattree::Truncate(QueueDesc qd, uint64_t offset) {
  if (queues_.count(qd) == 0) {
    return Status::kBadQueueDescriptor;
  }
  return storage_.Truncate(offset);
}

Status Cattree::Close(QueueDesc qd) {
  auto it = queues_.find(qd);
  if (it == queues_.end()) {
    return Status::kBadQueueDescriptor;
  }
  storage_.Close(*it->second);
  queues_.erase(it);
  return Status::kOk;
}

Result<QToken> Cattree::Push(QueueDesc qd, const Sgarray& sga) {
  if (queues_.count(qd) == 0) {
    return Status::kBadQueueDescriptor;
  }
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  sched_.Spawn(storage_.PushOp(qt, sga));
  return qt;
}

Result<QToken> Cattree::Pop(QueueDesc qd) {
  auto it = queues_.find(qd);
  if (it == queues_.end()) {
    return Status::kBadQueueDescriptor;
  }
  const QToken qt = tokens_.Allocate(OpCode::kPop, qd);
  storage_.Pop(it->second, qt);
  return qt;
}

}  // namespace demi
