#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace neurodb {
namespace obs {

uint64_t Histogram::ValueAtQuantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) return BucketUpperBound(i);
  }
  // Concurrent recording can leave count() ahead of the bucket sums for an
  // instant; fall back to the recorded maximum.
  return max();
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < 8) return static_cast<uint64_t>(index);
  const int width = 4 + static_cast<int>((index - 8) / 4);
  const uint64_t sub = (index - 8) % 4;
  const uint64_t quarter = uint64_t{1} << (width - 3);
  const uint64_t lo = (uint64_t{1} << (width - 1)) + sub * quarter;
  return lo + (quarter - 1);
}

namespace {

// --- JSON emission helpers ------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PromName(const std::string& prefix, const std::string& name) {
  std::string out = prefix.empty() ? "" : prefix + "_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(counters[i].name) << "\":" << counters[i].value;
  }
  out << "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(gauges[i].name) << "\":" << gauges[i].value;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(h.name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"max\":" << h.max << ",\"p50\":" << h.p50
        << ",\"p95\":" << h.p95 << ",\"p99\":" << h.p99 << "}";
  }
  out << "}}";
  return out.str();
}

std::string MetricsSnapshot::ToPrometheus(const std::string& prefix) const {
  std::ostringstream out;
  for (const auto& c : counters) {
    const std::string name = PromName(prefix, c.name);
    out << "# TYPE " << name << " counter\n" << name << " " << c.value << "\n";
  }
  for (const auto& g : gauges) {
    const std::string name = PromName(prefix, g.name);
    out << "# TYPE " << name << " gauge\n" << name << " " << g.value << "\n";
  }
  for (const auto& h : histograms) {
    const std::string name = PromName(prefix, h.name);
    out << "# TYPE " << name << " summary\n";
    out << name << "{quantile=\"0.5\"} " << h.p50 << "\n";
    out << name << "{quantile=\"0.95\"} " << h.p95 << "\n";
    out << name << "{quantile=\"0.99\"} " << h.p99 << "\n";
    out << name << "_max " << h.max << "\n";
    out << name << "_sum " << h.sum << "\n";
    out << name << "_count " << h.count << "\n";
  }
  return out.str();
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.max = h->max();
    hs.p50 = h->ValueAtQuantile(0.50);
    hs.p95 = h->ValueAtQuantile(0.95);
    hs.p99 = h->ValueAtQuantile(0.99);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace obs
}  // namespace neurodb
