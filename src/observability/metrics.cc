#include "src/observability/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "src/common/logging.h"

namespace demi {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(out, "\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// "tcp" for "tcp.retransmits" and for the labelled "tcp.x{tenant=2}".
std::string_view ComponentOf(std::string_view name) { return name.substr(0, name.find('.')); }

}  // namespace

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry::Entry& MetricsRegistry::Intern(std::string name, std::string unit,
                                                MetricType type) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    DEMI_CHECK_MSG(e.type == type, "metric re-registered with a different type");
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::move(name);
  entry->unit = std::move(unit);
  entry->type = type;
  entries_.push_back(std::move(entry));
  index_[entries_.back()->name] = entries_.size() - 1;
  return *entries_.back();
}

Counter& MetricsRegistry::RegisterCounter(std::string name, std::string unit) {
  Entry& e = Intern(std::move(name), std::move(unit), MetricType::kCounter);
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::RegisterGauge(std::string name, std::string unit) {
  Entry& e = Intern(std::move(name), std::move(unit), MetricType::kGauge);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::RegisterHistogram(std::string name, std::string unit) {
  Entry& e = Intern(std::move(name), std::move(unit), MetricType::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>();
  }
  return *e.histogram;
}

void MetricsRegistry::RegisterCounter(std::string name, std::string unit,
                                      std::function<uint64_t()> fn) {
  Intern(std::move(name), std::move(unit), MetricType::kCounter).sample = std::move(fn);
}

void MetricsRegistry::RegisterGauge(std::string name, std::string unit,
                                    std::function<uint64_t()> fn) {
  Intern(std::move(name), std::move(unit), MetricType::kGauge).sample = std::move(fn);
}

size_t MetricsRegistry::NumComponents() const {
  std::vector<std::string_view> seen;
  for (const auto& e : entries_) {
    const std::string_view component = ComponentOf(e->name);
    if (std::find(seen.begin(), seen.end(), component) == seen.end()) {
      seen.push_back(component);
    }
  }
  return seen.size();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    Sample s;
    s.name = e->name;
    s.component = ComponentOf(e->name);
    s.unit = e->unit;
    s.type = e->type;
    switch (e->type) {
      case MetricType::kCounter:
        s.value = static_cast<int64_t>(e->sample ? e->sample() : e->counter->Value());
        break;
      case MetricType::kGauge:
        s.value = e->sample ? static_cast<int64_t>(e->sample()) : e->gauge->Value();
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *e->histogram;
        s.count = h.count();
        s.mean = h.Mean();
        s.min = h.min();
        s.p50 = h.P50();
        s.p99 = h.P99();
        s.p999 = h.P999();
        s.max = h.max();
        s.value = static_cast<int64_t>(s.count);
        break;
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    return a.component != b.component ? a.component < b.component : a.name < b.name;
  });
  return out;
}

std::string MetricsRegistry::ExportText() const {
  const std::vector<Sample> samples = Snapshot();
  std::string out;
  AppendF(&out, "# metrics: %zu instruments, %zu components\n", samples.size(),
          NumComponents());
  for (const Sample& s : samples) {
    if (s.type == MetricType::kHistogram) {
      AppendF(&out,
              "%-32s histogram  count=%" PRIu64 " mean=%.1f p50=%" PRIu64 " p99=%" PRIu64
              " p99.9=%" PRIu64 " max=%" PRIu64 " %s\n",
              s.name.c_str(), s.count, s.mean, s.p50, s.p99, s.p999, s.max, s.unit.c_str());
    } else {
      AppendF(&out, "%-32s %-9s %20" PRId64 " %s\n", s.name.c_str(), MetricTypeName(s.type),
              s.value, s.unit.c_str());
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  const std::vector<Sample> samples = Snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, s.name);
    out.append(",\"component\":");
    AppendJsonString(&out, s.component);
    out.append(",\"type\":");
    AppendJsonString(&out, MetricTypeName(s.type));
    out.append(",\"unit\":");
    AppendJsonString(&out, s.unit);
    if (s.type == MetricType::kHistogram) {
      AppendF(&out,
              ",\"count\":%" PRIu64 ",\"mean\":%.3f,\"min\":%" PRIu64 ",\"p50\":%" PRIu64
              ",\"p99\":%" PRIu64 ",\"p999\":%" PRIu64 ",\"max\":%" PRIu64,
              s.count, s.mean, s.min, s.p50, s.p99, s.p999, s.max);
    } else {
      AppendF(&out, ",\"value\":%" PRId64, s.value);
    }
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

}  // namespace demi
