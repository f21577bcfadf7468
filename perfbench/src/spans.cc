#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kCorePush: return "core.push";
    case Layer::kCorePop: return "core.pop";
    case Layer::kCoreTake: return "core.take";
    case Layer::kClientPollBusy: return "runtime.client_poll_busy";
    case Layer::kClientPollIdle: return "runtime.client_poll_idle";
    case Layer::kServerPollBusy: return "runtime.server_poll_busy";
    case Layer::kServerPollIdle: return "runtime.server_poll_idle";
    case Layer::kServerPump: return "apps.server_pump_empty";
    case Layer::kServerPumpServed: return "apps.server_pump_served";
    case Layer::kKvCodec: return "apps.kv_codec";
    case Layer::kDmaMalloc: return "memory.dma_malloc";
    case Layer::kDmaFree: return "memory.dma_free";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<demi::DurationNs> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<demi::TimeNs, demi::TimeNs>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<demi::DurationNs> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const demi::TimeNs lo = spans[i].start;
    const demi::TimeNs hi = std::max(spans[i].end, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    demi::DurationNs covered = 0;
    demi::TimeNs run_start = 0;
    demi::TimeNs run_end = 0;
    bool in_run = false;
    for (auto [cs, ce] : kids) {
      cs = std::clamp(cs, lo, hi);
      ce = std::clamp(ce, lo, hi);
      if (ce <= cs) {
        continue;
      }
      if (in_run && cs <= run_end) {
        run_end = std::max(run_end, ce);
        continue;
      }
      if (in_run) {
        covered += run_end - run_start;
      }
      run_start = cs;
      run_end = ce;
      in_run = true;
    }
    if (in_run) {
      covered += run_end - run_start;
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void SpanRecorder::BeginRequest(uint64_t id, demi::TimeNs start) {
  current_.clear();
  current_.push_back(Span{Layer::kRequest, -1, id, start, start});
}

void SpanRecorder::EndRequest(demi::TimeNs end, RequestClass cls) {
  current_.front().end = end;
  const std::vector<demi::DurationNs> self = SelfTimes(current_);
  auto& totals = self_[Index(cls)];
  for (size_t i = 0; i < current_.size(); i++) {
    totals[static_cast<size_t>(current_[i].layer)] += self[i];
  }
  request_ns_ += end - current_.front().start;
  requests_[Index(cls)]++;
  if (requests() <= keep_requests_) {
    kept_.insert(kept_.end(), current_.begin(), current_.end());
  }
}

std::string SpanRecorder::ExportChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const demi::TimeNs origin = kept_.empty() ? 0 : kept_.front().start;
  char line[256];
  for (size_t i = 0; i < kept_.size(); i++) {
    const Span& s = kept_[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,\"parent\":\"%s\"}}",
                  i == 0 ? "" : ",\n", LayerName(s.layer),
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3,
                  static_cast<unsigned long long>(s.request),
                  s.parent < 0 ? "" : LayerName(Layer::kRequest));
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
