// Spans recorded by the benchmark around each call it makes into a layer's public functions.
//
// Only the traced run records them, and only in its unloaded phase, where exactly one request
// is in flight, so every call belongs to that request. Each request is one root span; the layer
// calls made while it is outstanding are its children. Self times are folded into per-layer
// totals as each request closes; the spans of the first requests are also kept for a Chrome
// trace ("ph":"X") that Perfetto opens.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "perfbench/src/clock.h"

namespace perfbench {

// What a span is charged to. Names are the src/ modules the called function belongs to.
enum class Layer : uint8_t {
  kRequest,           // root: issue to verified reply
  kCorePush,          // client LibOS::Push
  kCorePop,           // client LibOS::Pop
  kCoreTake,          // client LibOS::IsDone / TryTake
  kClientPollBusy,    // client PollOnce that did work (resumed a fiber or drained frames)
  kClientPollIdle,    // client PollOnce that found nothing: waiting on the wire
  kServerPollBusy,
  kServerPollIdle,
  kServerPump,        // server app Pump that served nothing
  kServerPumpServed,  // server app Pump that served at least one request
  kKvCodec,           // client KvEncodeRequest / KvParseResponse
  kDmaMalloc,         // client DmaMalloc
  kDmaFree,           // client DmaFree / FreeSga
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kRequest;
  int32_t parent = -1;  // index of the parent within its request's spans; -1 for the root
  uint64_t request = 0;
  demi::TimeNs start = 0;
  demi::TimeNs end = 0;
};

// Self time of every span: its duration minus the part of its interval that its children
// cover. Overlapping children are merged first, so shared time is subtracted once.
std::vector<demi::DurationNs> SelfTimes(std::span<const Span> spans);

// Request classes the self times are split by (a GET and a SET exercise different paths).
enum class RequestClass : uint8_t { kRead, kWrite };

class SpanRecorder {
 public:
  // Keeps the spans of the first `keep_requests` requests for ExportChromeJson.
  explicit SpanRecorder(size_t keep_requests) : keep_requests_(keep_requests) {}

  void BeginRequest(uint64_t id, demi::TimeNs start);
  // Records one layer call of the current request.
  void Add(Layer layer, demi::TimeNs start, demi::TimeNs end) {
    current_.push_back(Span{layer, 0, current_.front().request, start, end});
  }
  void EndRequest(demi::TimeNs end, RequestClass cls);

  uint64_t requests(RequestClass cls) const { return requests_[Index(cls)]; }
  uint64_t requests() const { return requests_[0] + requests_[1]; }
  // Sum of self times charged to `layer` over all closed requests of `cls`.
  demi::DurationNs self_ns(Layer layer, RequestClass cls) const {
    return self_[Index(cls)][static_cast<size_t>(layer)];
  }
  demi::DurationNs self_ns(Layer layer) const {
    return self_ns(layer, RequestClass::kRead) + self_ns(layer, RequestClass::kWrite);
  }
  // Sum of root-span durations.
  demi::DurationNs request_ns() const { return request_ns_; }

  // {"traceEvents":[{"name":..,"ph":"X","ts":..,"dur":..,"args":{"request":..,"parent":..}}]}
  std::string ExportChromeJson() const;

 private:
  static size_t Index(RequestClass cls) { return static_cast<size_t>(cls); }

  size_t keep_requests_;
  std::vector<Span> current_;
  std::vector<Span> kept_;
  std::array<std::array<demi::DurationNs, kNumLayers>, 2> self_{};
  std::array<uint64_t, 2> requests_{};
  demi::DurationNs request_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
