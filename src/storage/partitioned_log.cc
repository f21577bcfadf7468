#include "src/storage/partitioned_log.h"

#include <algorithm>

#include "src/common/logging.h"

namespace demi {

PartitionedLog::PartitionedLog(SimBlockDevice& device, size_t num_partitions) : device_(device) {
  DEMI_CHECK_MSG(num_partitions > 0, "PartitionedLog needs at least one partition");
  const uint64_t total = device.config().num_blocks;
  DEMI_CHECK_MSG(total >= num_partitions, "fewer blocks than partitions");
  device_.ConfigureQueues(num_partitions);
  const uint64_t per = total / num_partitions;
  const uint64_t rem = total % num_partitions;
  uint64_t next = 0;
  parts_.reserve(num_partitions);
  for (size_t i = 0; i < num_partitions; i++) {
    LogPartition p;
    p.first_block = next;
    p.num_blocks = per + (i < rem ? 1 : 0);
    p.id = static_cast<uint32_t>(i);
    next += p.num_blocks;
    parts_.push_back(p);
  }
}

void PartitionedLog::RecoverAll(std::vector<StitchedRecord>* out) {
  uint64_t max_epoch = 0;
  std::vector<StitchedRecord> all;
  for (const LogPartition& part : parts_) {
    std::vector<LogDevice::RecordInfo> records;
    LogDevice::ScanPartition(device_, part, &records);
    for (const auto& r : records) {
      max_epoch = std::max(max_epoch, r.epoch);
      if (out != nullptr) {
        all.push_back(StitchedRecord{part.id, r.offset, r.len, r.epoch});
      }
    }
  }
  LogDevice::SeedEpochPast(epoch_, max_epoch);
  if (out != nullptr) {
    // Epochs are globally unique (one shared counter), so this is a total order: the global
    // append sequence stitched back together across partitions.
    std::sort(all.begin(), all.end(),
              [](const StitchedRecord& a, const StitchedRecord& b) { return a.epoch < b.epoch; });
    *out = std::move(all);
  }
}

std::vector<uint8_t> PartitionedLog::ReadPayload(const StitchedRecord& rec) const {
  const size_t block_size = device_.config().block_size;
  const uint64_t base = parts_[rec.partition].first_block * block_size;
  std::vector<uint8_t> payload(rec.len);
  if (rec.len > 0) {
    device_.RawRead(base + rec.offset + LogDevice::kHeaderSize, payload);
  }
  return payload;
}

}  // namespace demi
