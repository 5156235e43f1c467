// NeuroDB — observability metrics: thread-safe named counters, gauges and
// log-bucketed latency histograms with lock-free hot-path recording.
//
// The registry is the engine-wide, thread-safe home of every named metric.
// Layout:
//
//   - `Counter`, `Gauge`, `Histogram` are plain structs of relaxed atomics:
//     recording is a handful of uncontended atomic adds, safe from any
//     thread, no locks, no allocation.
//   - `MetricsRegistry` owns metrics by name. Lookup (`counter()` /
//     `gauge()` / `histogram()`) takes a mutex, so callers resolve metric
//     pointers once (at load/open time) and record through the stable
//     pointers on the hot path.
//   - `Snapshot()` produces a `MetricsSnapshot` — plain data with JSON and
//     Prometheus-style text serialization.
//
// Histograms are log-bucketed (4 sub-buckets per power of two, so a
// reconstructed quantile overestimates its sample by < 25%) — recording
// a sample costs one atomic add
// into a fixed 252-slot array; quantiles are reconstructed at snapshot
// time as the upper bound of the bucket containing the requested rank.
//
// The canonical metric names the engine emits are catalogued in
// docs/OBSERVABILITY.md.

#ifndef NEURODB_OBS_METRICS_H_
#define NEURODB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace neurodb {
namespace obs {

/// Monotonically increasing counter. Thread-safe; relaxed atomics.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Bump() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. Thread-safe; relaxed atomics.
class Gauge {
 public:
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  void SetMax(uint64_t value) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (value > cur &&
           !value_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Log-bucketed histogram of non-negative integer samples (typically
/// microseconds). Thread-safe; recording is three relaxed atomic adds plus
/// a max CAS. Buckets: values 0..7 get exact buckets; beyond that each
/// power-of-two octave is split into 4 sub-buckets, so any reconstructed
/// quantile overestimates the true sample by less than 25%.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 252;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Upper bound of the bucket containing the sample at rank
  /// ceil(q * count), 1-based over the sorted samples. 0 when empty.
  /// Deterministic given the recorded multiset: equals
  /// BucketUpperBound(BucketIndex(exact_quantile)).
  uint64_t ValueAtQuantile(double q) const;

  /// Bucket index for a sample value (monotone non-decreasing in value).
  static size_t BucketIndex(uint64_t value) {
    if (value < 8) return static_cast<size_t>(value);
    const int width = std::bit_width(value);  // >= 4
    const uint64_t sub = (value >> (width - 3)) & 3;
    return 8 + static_cast<size_t>(width - 4) * 4 + static_cast<size_t>(sub);
  }

  /// Largest value mapping to bucket `index`.
  static uint64_t BucketUpperBound(size_t index);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

/// Point-in-time copy of every metric in a registry, name-sorted within
/// each kind. Plain data: safe to serialize, ship and diff.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(const std::string& name) const;
  const GaugeSnapshot* FindGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  /// {"counters":{...},"gauges":{...},"histograms":{"n":{"count":..}}}.
  std::string ToJson() const;

  /// Prometheus text exposition: counters/gauges as single samples,
  /// histograms as summaries (quantile series + _sum + _count). Metric
  /// names are prefixed and sanitized ('.' and other non-identifier
  /// characters become '_').
  std::string ToPrometheus(const std::string& prefix = "neurodb") const;
};

/// Thread-safe home of named metrics. Metrics are created on first lookup
/// and live (at stable addresses) for the registry's lifetime, so hot
/// paths resolve pointers once and record lock-free thereafter.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Null-tolerant recording helpers: the engine holds null metric pointers
/// when EngineOptions::metrics == kOff, so every hot-path record site
/// inlines to a pointer test and nothing else.
inline void Add(Counter* c, uint64_t delta) {
  if (c != nullptr) c->Add(delta);
}
inline void Bump(Counter* c) {
  if (c != nullptr) c->Add(1);
}
inline void Record(Histogram* h, uint64_t value) {
  if (h != nullptr) h->Record(value);
}
inline void Set(Gauge* g, uint64_t value) {
  if (g != nullptr) g->Set(value);
}

}  // namespace obs
}  // namespace neurodb

#endif  // NEURODB_OBS_METRICS_H_
