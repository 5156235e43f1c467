// Observability tests: histogram quantiles against a sorted-vector oracle,
// snapshot JSON round-trip and Prometheus exposition, concurrent recording
// into one registry (the TSan CI job runs this binary under
// -fsanitize=thread), slow-query ring capture/eviction, trace span trees
// covering engine → backend → pool → disk, and the metrics-off probe
// (byte-identical answers, empty export).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "geom/visitor.h"
#include "neuro/circuit_generator.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace neurodb {
namespace {

using engine::BackendChoice;
using engine::CachePolicy;
using engine::EngineOptions;
using engine::MetricsMode;
using engine::QueryEngine;
using geom::Aabb;
using geom::ElementVec;
using geom::Vec3;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "ndb_obs_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

ElementVec MakeGrid(size_t n) {
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    float x = static_cast<float>(i % 8) * 10.0f;
    float y = static_cast<float>((i / 8) % 8) * 10.0f;
    float z = static_cast<float>(i / 64) * 10.0f;
    out.emplace_back(i + 1, Aabb(Vec3(x, y, z), Vec3(x + 4, y + 4, z + 4)));
  }
  return out;
}

Aabb EverythingBox() { return Aabb(Vec3(-5, -5, -5), Vec3(500, 500, 500)); }

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsRoundTrip) {
  uint64_t prev = 0;
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    const uint64_t upper = obs::Histogram::BucketUpperBound(i);
    // The upper bound is the largest value of its own bucket, and bounds
    // grow strictly with the index.
    EXPECT_EQ(obs::Histogram::BucketIndex(upper), i) << "bucket " << i;
    if (i > 0) EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
  // Every value maps into a bucket whose bound contains it, within 25%.
  std::mt19937_64 rng(0x0B5);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng() >> (rng() % 64);
    const uint64_t upper =
        obs::Histogram::BucketUpperBound(obs::Histogram::BucketIndex(v));
    EXPECT_GE(upper, v);
    // Overestimate stays under 25% (subtraction form: v + v/4 overflows
    // uint64 for samples near 2^64).
    EXPECT_LE(upper - v, v / 4 + 1);
  }
}

TEST(HistogramTest, QuantilesMatchSortedVectorOracle) {
  std::mt19937_64 rng(0xB0B);
  for (size_t n : {1u, 7u, 100u, 5000u}) {
    obs::Histogram h;
    std::vector<uint64_t> samples;
    samples.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Heavy-tailed: uniform within a random octave, like latencies.
      const uint64_t v = rng() % (uint64_t{1} << (rng() % 24));
      samples.push_back(v);
      h.Record(v);
    }
    std::sort(samples.begin(), samples.end());

    uint64_t sum = 0;
    for (uint64_t v : samples) sum += v;
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.max(), samples.back());

    for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      const size_t rank = std::min<size_t>(
          n, std::max<size_t>(
                 1, static_cast<size_t>(std::ceil(q * static_cast<double>(n)))));
      const uint64_t exact = samples[rank - 1];
      // The reconstruction is exactly the bucket upper bound of the true
      // rank sample — deterministic, and within the bucketing error.
      EXPECT_EQ(h.ValueAtQuantile(q),
                obs::Histogram::BucketUpperBound(
                    obs::Histogram::BucketIndex(exact)))
          << "n=" << n << " q=" << q;
      EXPECT_GE(h.ValueAtQuantile(q), exact);
      EXPECT_LE(h.ValueAtQuantile(q), exact + exact / 4 + 1);
    }
  }
  EXPECT_EQ(obs::Histogram().ValueAtQuantile(0.5), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------------

TEST(MetricsSnapshotTest, JsonRoundTripIsFieldIdentical) {
  obs::MetricsRegistry registry;
  registry.counter("engine.query.range.count")->Add(42);
  registry.counter("weird \"name\" with\\slashes")->Add(7);
  registry.gauge("engine.epoch")->Set(9);
  obs::Histogram* h = registry.histogram("engine.query.range.latency_us");
  for (uint64_t v : {3u, 90u, 1500u, 1500u, 80000u}) h->Record(v);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto parsed = obs::MetricsSnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  ASSERT_EQ(parsed->counters.size(), snap.counters.size());
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(parsed->counters[i].name, snap.counters[i].name);
    EXPECT_EQ(parsed->counters[i].value, snap.counters[i].value);
  }
  ASSERT_EQ(parsed->gauges.size(), snap.gauges.size());
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    EXPECT_EQ(parsed->gauges[i].name, snap.gauges[i].name);
    EXPECT_EQ(parsed->gauges[i].value, snap.gauges[i].value);
  }
  ASSERT_EQ(parsed->histograms.size(), snap.histograms.size());
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    EXPECT_EQ(parsed->histograms[i].name, snap.histograms[i].name);
    EXPECT_EQ(parsed->histograms[i].count, snap.histograms[i].count);
    EXPECT_EQ(parsed->histograms[i].sum, snap.histograms[i].sum);
    EXPECT_EQ(parsed->histograms[i].max, snap.histograms[i].max);
    EXPECT_EQ(parsed->histograms[i].p50, snap.histograms[i].p50);
    EXPECT_EQ(parsed->histograms[i].p95, snap.histograms[i].p95);
    EXPECT_EQ(parsed->histograms[i].p99, snap.histograms[i].p99);
  }
}

TEST(MetricsSnapshotTest, FromJsonRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[]", "{\"counters\":[]}", "{\"counters\":{\"a\":}}",
        "{\"histograms\":{\"h\":{\"count\":1}}} trailing"}) {
    EXPECT_FALSE(obs::MetricsSnapshot::FromJson(bad).ok()) << bad;
  }
}

TEST(MetricsSnapshotTest, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.counter("engine.query.range.count")->Add(3);
  registry.gauge("pool.pages_cached")->Set(12);
  registry.histogram("engine.query.range.latency_us")->Record(100);

  const std::string text = registry.Snapshot().ToPrometheus();
  EXPECT_NE(text.find("# TYPE neurodb_engine_query_range_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("neurodb_engine_query_range_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE neurodb_pool_pages_cached gauge"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE neurodb_engine_query_range_latency_us summary"),
      std::string::npos);
  EXPECT_NE(
      text.find("neurodb_engine_query_range_latency_us{quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("neurodb_engine_query_range_latency_us_count 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan CI job runs this under -fsanitize=thread)
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      // Resolve through the registry from every thread (exercises the
      // get-or-create lock), record through the stable pointers.
      obs::Counter* counter = registry.counter("shared.counter");
      obs::Gauge* gauge = registry.gauge("shared.gauge");
      obs::Histogram* hist = registry.histogram("shared.hist");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        gauge->SetMax(static_cast<uint64_t>(t) * kPerThread + i);
        hist->Record(i % 1024);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_NE(snap.FindCounter("shared.counter"), nullptr);
  EXPECT_EQ(snap.FindCounter("shared.counter")->value, kThreads * kPerThread);
  ASSERT_NE(snap.FindGauge("shared.gauge"), nullptr);
  EXPECT_EQ(snap.FindGauge("shared.gauge")->value,
            kThreads * kPerThread - 1);
  ASSERT_NE(snap.FindHistogram("shared.hist"), nullptr);
  EXPECT_EQ(snap.FindHistogram("shared.hist")->count, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

TEST(SlowQueryLogTest, RingEvictsOldestAndIgnoresFastQueries) {
  obs::SlowQueryLog log(/*capacity=*/4, /*threshold_us=*/10);
  log.Record("range", 9, nullptr);  // below threshold: ignored
  for (uint64_t i = 0; i < 10; ++i) log.Record("range", 10 + i, nullptr);

  EXPECT_EQ(log.total_recorded(), 10u);
  const std::vector<obs::SlowQuery> entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, 7 + i);  // oldest six evicted
    EXPECT_EQ(entries[i].duration_us, 16 + i);
    EXPECT_EQ(entries[i].kind, "range");
  }
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

TEST(EngineObsTest, QueriesPopulateEngineAndBackendMetrics) {
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(MakeGrid(200)).ok());

  engine::RangeRequest range;
  range.box = EverythingBox();
  range.cache = CachePolicy::kWarm;
  ASSERT_TRUE(db.Execute(range).ok());
  engine::KnnRequest knn;
  knn.point = Vec3(20, 20, 10);
  knn.k = 5;
  ASSERT_TRUE(db.Execute(knn).ok());

  const obs::MetricsSnapshot snap = db.MetricsSnapshot();
  ASSERT_NE(snap.FindCounter("engine.query.range.count"), nullptr);
  EXPECT_EQ(snap.FindCounter("engine.query.range.count")->value, 1u);
  EXPECT_EQ(snap.FindCounter("engine.query.range.results")->value, 200u);
  EXPECT_EQ(snap.FindCounter("engine.query.knn.count")->value, 1u);
  ASSERT_NE(snap.FindHistogram("engine.query.range.latency_us"), nullptr);
  EXPECT_EQ(snap.FindHistogram("engine.query.range.latency_us")->count, 1u);
  // Per-backend attribution: the default kAll request ran every backend.
  ASSERT_NE(snap.FindCounter("backend.FLAT.queries"), nullptr);
  EXPECT_GE(snap.FindCounter("backend.FLAT.queries")->value, 1u);
  // Sampled state gauges appear in the snapshot.
  ASSERT_NE(snap.FindGauge("engine.backends"), nullptr);
  EXPECT_GE(snap.FindGauge("engine.backends")->value, 3u);
  ASSERT_NE(snap.FindGauge("pool.pages_cached"), nullptr);
  // The warm queries above ran on one thread: no pool latch was ever held
  // by someone else.
  ASSERT_NE(snap.FindGauge("pool.hits"), nullptr);
  EXPECT_GT(snap.FindGauge("pool.hits")->value +
                snap.FindGauge("pool.misses")->value,
            0u);
  ASSERT_NE(snap.FindGauge("pool.latch_waits"), nullptr);
  EXPECT_EQ(snap.FindGauge("pool.latch_waits")->value, 0u);
}

TEST(EngineObsTest, JoinsPopulateJoinMetricsAndRunWithMetricsOff) {
  neuro::CircuitParams params;
  params.num_neurons = 6;
  params.seed = 7;
  auto circuit = neuro::CircuitGenerator(params).Generate();
  ASSERT_TRUE(circuit.ok());
  QueryEngine on;
  ASSERT_TRUE(on.LoadCircuit(*circuit).ok());
  EngineOptions off_options;
  off_options.metrics = MetricsMode::kOff;
  QueryEngine off(off_options);
  ASSERT_TRUE(off.LoadCircuit(*circuit).ok());

  auto joined = on.Execute(engine::JoinRequest());
  ASSERT_TRUE(joined.ok());
  EXPECT_GT(joined->pairs.size(), 0u);
  auto joined_off = off.Execute(engine::JoinRequest());
  ASSERT_TRUE(joined_off.ok());
  EXPECT_EQ(joined_off->pairs, joined->pairs);

  const obs::MetricsSnapshot snap = on.MetricsSnapshot();
  ASSERT_NE(snap.FindCounter("engine.query.join.count"), nullptr);
  EXPECT_EQ(snap.FindCounter("engine.query.join.count")->value, 1u);
  ASSERT_NE(snap.FindCounter("engine.query.join.pairs"), nullptr);
  EXPECT_EQ(snap.FindCounter("engine.query.join.pairs")->value,
            joined->pairs.size());
  ASSERT_NE(snap.FindHistogram("engine.query.join.latency_us"), nullptr);
  EXPECT_EQ(snap.FindHistogram("engine.query.join.latency_us")->count, 1u);
}

TEST(EngineObsTest, TracedQueryCoversEngineBackendAndPoolLayers) {
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(MakeGrid(300)).ok());

  engine::RangeRequest request;
  request.box = EverythingBox();
  request.backend = BackendChoice::kFlat;
  request.cache = CachePolicy::kWarm;
  request.trace = true;
  auto report = db.Execute(request);
  ASSERT_TRUE(report.ok());

  // Memory stores: logical pool counters are populated, physical IO is not
  // — the uniform cost signal of RangeReport::pool.
  EXPECT_GT(report->pool.accesses(), 0u);
  EXPECT_EQ(report->io.bytes_read, 0u);
  EXPECT_EQ(report->io.bytes_written, 0u);

  ASSERT_NE(report->trace, nullptr);
  const std::vector<obs::Span>& spans = report->trace->spans();
  ASSERT_GE(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "range");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_GT(spans[0].duration_ns, 0u);

  auto find = [&spans](const std::string& name) -> const obs::Span* {
    for (const obs::Span& s : spans) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const obs::Span* backend = find("backend:FLAT");
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->parent, 0);
  EXPECT_GT(backend->duration_ns, 0u);
  bool pages_tag = false;
  for (const auto& [key, value] : backend->tags) {
    if (key == "pages_read") {
      pages_tag = true;
      EXPECT_NE(value, "0");
    }
  }
  EXPECT_TRUE(pages_tag);
  const obs::Span* pool = find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_GT(pool->duration_ns, 0u);
  EXPECT_EQ(find("disk"), nullptr);  // nothing below the pool in memory
}

TEST(EngineObsTest, TracedQueryOnDiskStoresReachesDiskSpan) {
  TempDir dir;
  EngineOptions options;
  options.durability.dir = dir.Sub("data");
  options.durability.disk_backends = true;
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadElements(MakeGrid(300)).ok());

  engine::RangeRequest request;
  request.box = EverythingBox();
  request.backend = BackendChoice::kRTree;
  request.cache = CachePolicy::kCold;  // fresh pool: every page misses
  request.trace = true;
  auto report = db.Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->io.bytes_read, 0u);

  ASSERT_NE(report->trace, nullptr);
  const obs::Span* disk = nullptr;
  for (const obs::Span& s : report->trace->spans()) {
    if (s.name == "disk") disk = &s;
  }
  ASSERT_NE(disk, nullptr);
  bool bytes_tag = false;
  for (const auto& [key, value] : disk->tags) {
    if (key == "bytes_read") {
      bytes_tag = true;
      EXPECT_NE(value, "0");
    }
  }
  EXPECT_TRUE(bytes_tag);
}

TEST(EngineObsTest, SlowLogCapturesTracedOffenders) {
  EngineOptions options;
  options.slow_query_us = 1;  // everything is slow
  options.slow_log_entries = 4;
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadElements(MakeGrid(200)).ok());

  for (int i = 0; i < 6; ++i) {
    engine::RangeRequest request;
    request.box = EverythingBox();
    request.cache = CachePolicy::kWarm;
    ASSERT_TRUE(db.Execute(request).ok());
  }

  ASSERT_NE(db.slow_log(), nullptr);
  const std::vector<obs::SlowQuery> entries = db.slow_log()->Entries();
  ASSERT_EQ(entries.size(), 4u);  // ring capacity
  EXPECT_EQ(db.slow_log()->total_recorded(), 6u);
  for (const obs::SlowQuery& slow : entries) {
    EXPECT_EQ(slow.kind, "range");
    EXPECT_GE(slow.duration_us, 1u);
    // Offenders retain their span tree even though the requests never
    // asked for a trace.
    ASSERT_NE(slow.trace, nullptr);
    EXPECT_EQ(slow.trace->root().name, "range");
  }
  const obs::MetricsSnapshot snap = db.MetricsSnapshot();
  ASSERT_NE(snap.FindCounter("engine.slow_queries"), nullptr);
  EXPECT_EQ(snap.FindCounter("engine.slow_queries")->value, 6u);
}

TEST(EngineObsTest, SlowLogRequiresMetricsOn) {
  EngineOptions options;
  options.metrics = MetricsMode::kOff;
  options.slow_query_us = 100;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(EngineObsTest, MetricsOffAnswersByteIdenticallyAndExportsNothing) {
  const ElementVec elements = MakeGrid(300);
  QueryEngine on;
  ASSERT_TRUE(on.LoadElements(elements).ok());
  EngineOptions off_options;
  off_options.metrics = MetricsMode::kOff;
  QueryEngine off(off_options);
  ASSERT_TRUE(off.LoadElements(elements).ok());

  std::mt19937_64 rng(0x5EED);
  for (int i = 0; i < 20; ++i) {
    const float x = static_cast<float>(rng() % 60);
    const float y = static_cast<float>(rng() % 60);
    engine::RangeRequest request;
    request.box = Aabb(Vec3(x, y, 0), Vec3(x + 25, y + 25, 40));
    request.cache = CachePolicy::kWarm;
    request.trace = true;  // honored only with metrics on

    geom::CollectingVisitor got_on, got_off;
    auto report_on = on.Execute(request, got_on);
    auto report_off = off.Execute(request, got_off);
    ASSERT_TRUE(report_on.ok());
    ASSERT_TRUE(report_off.ok());
    const ElementVec a = got_on.TakeElements();
    const ElementVec b = got_off.TakeElements();
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j].id, b[j].id);
    EXPECT_NE(report_on->trace, nullptr);
    EXPECT_EQ(report_off->trace, nullptr);

    engine::KnnRequest knn;
    knn.point = Vec3(x, y, 10);
    knn.k = 7;
    auto knn_on = on.Execute(knn);
    auto knn_off = off.Execute(knn);
    ASSERT_TRUE(knn_on.ok());
    ASSERT_TRUE(knn_off.ok());
    ASSERT_EQ(knn_on->hits.size(), knn_off->hits.size());
    for (size_t j = 0; j < knn_on->hits.size(); ++j) {
      EXPECT_EQ(knn_on->hits[j].id, knn_off->hits[j].id);
    }
  }

  EXPECT_EQ(off.metrics(), nullptr);
  const obs::MetricsSnapshot empty = off.MetricsSnapshot();
  EXPECT_TRUE(empty.counters.empty());
  EXPECT_TRUE(empty.gauges.empty());
  EXPECT_TRUE(empty.histograms.empty());
}

TEST(EngineObsTest, SessionStepsRecordMetricsAndTraces) {
  EngineOptions options;
  options.session.trace_steps = true;
  options.slow_query_us = 1;
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadElements(MakeGrid(300)).ok());

  auto session = db.OpenSession(scout::PrefetchMethod::kHilbert,
                                CachePolicy::kWarm);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int i = 0; i < 3; ++i) {
    const float x = static_cast<float>(i) * 8.0f;
    auto step = session->Step(Aabb(Vec3(x, 0, 0), Vec3(x + 30, 30, 30)));
    ASSERT_TRUE(step.ok()) << step.status().ToString();
    ASSERT_NE(step->trace, nullptr);
    EXPECT_EQ(step->trace->root().name, "session.step");
    bool saw_query = false, saw_prefetch = false;
    for (const obs::Span& span : step->trace->spans()) {
      if (span.name == "query") saw_query = true;
      if (span.name == "prefetch") saw_prefetch = true;
    }
    EXPECT_TRUE(saw_query);
    EXPECT_TRUE(saw_prefetch);
  }

  const obs::MetricsSnapshot snap = db.MetricsSnapshot();
  ASSERT_NE(snap.FindCounter("session.step.count"), nullptr);
  EXPECT_EQ(snap.FindCounter("session.step.count")->value, 3u);
  ASSERT_NE(snap.FindHistogram("session.step.latency_us"), nullptr);
  EXPECT_EQ(snap.FindHistogram("session.step.latency_us")->count, 3u);
  // Every (wall-slow) step also landed in the engine's slow-query log.
  ASSERT_NE(db.slow_log(), nullptr);
  ASSERT_FALSE(db.slow_log()->Entries().empty());
  EXPECT_EQ(db.slow_log()->Entries().back().kind, "session.step");
}

}  // namespace
}  // namespace neurodb
