// serve_column: the paper's FLAT/range use case at 10^6 elements.
//
// A ~1.04M-element cortical column (MakeColumn(2400)) serves 4 closed-loop
// clients sending the range/kNN read mix with kWarm pools; each request
// runs on one backend picked by a seeded hash. The R-tree (~16.5k pages)
// and Grid/FLAT/Sharded (~4.1k pages each) exceed their 4096-page pools,
// so this is the workload larger than the cache. The op is one read.
//
// Traced, the same load runs untraced and then traced (the difference is
// trace.overhead_pct); the kept reads are then replayed through every
// backend, FlatIndex, a single client, and an engine with metrics off.

#include <cstdio>
#include <thread>

#include "neurobench.h"

namespace neurobench {
namespace {

constexpr uint32_t kColumnNeurons = 2400;
constexpr size_t kClients = 4;
/// Each engine's share of the window is cut into this many slices.
constexpr int kSlicesPerEngine = 10;
/// Untimed reads that fill the warm pools before the measured window.
constexpr uint64_t kWarmupReads = 8000;
/// Every 97th read is re-run as kAll; traced, every 16th is replayed.
constexpr KeepPolicy kKeep{97, 16};
constexpr uint64_t kOracleRanges = 200;
/// Stream ids: one request stream per purpose, all derived from --seed.
constexpr uint64_t kLoadStream = 1;
constexpr uint64_t kOracleStream = 2;
constexpr uint64_t kWarmupStream = 3;

struct Window {
  ReadStats reads;
  double seconds = 0.0;
};

/// kClients closed-loop clients sending read next++ until `seconds` pass
/// or `limit` reads were sent.
Window RunWindow(engine::QueryEngine& db, const geom::ElementVec& elements,
                 uint64_t stream, std::atomic<uint64_t>* next, uint64_t limit,
                 double seconds, SpanRecorder* spans, Report* report) {
  std::vector<ReadStats> parts(kClients);
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (NowNs() < deadline) {
        const uint64_t i = next->fetch_add(1);
        if (i >= limit) break;
        SendRead(db, elements, stream, i, kKeep, spans, &parts[c], report);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Window w;
  w.seconds = (NowNs() - t0) / 1e9;
  for (ReadStats& part : parts) w.reads.Merge(std::move(part));
  return w;
}

/// Every kept check read re-run on all four backends: they must agree with
/// each other and with the answer the client got.
void CheckParity(engine::QueryEngine& db, const std::vector<KeptRead>& kept,
                 Report* report) {
  for (const KeptRead& k : kept) {
    if (!k.check) continue;
    report->Attempt();
    bool same = false;
    if (k.query.kind == neuro::QueryKind::kKnn) {
      engine::KnnRequest request;
      request.point = k.query.point;
      request.k = k.query.k;
      request.backend = engine::BackendChoice::kAll;
      request.cache = engine::CachePolicy::kWarm;
      auto r = db.Execute(request);
      same = r.ok() && r->results_match && r->hits == k.result.hits;
    } else {
      engine::RangeRequest request;
      request.box = k.query.box;
      request.backend = engine::BackendChoice::kAll;
      request.cache = engine::CachePolicy::kWarm;
      auto r = db.Execute(request);
      same = r.ok() && r->results_match && r->results == k.result.results;
    }
    if (!same) report->Fail("kAll parity of read " + std::to_string(k.index));
  }
}

/// Mean latency of the kept reads sent one at a time.
double SingleClientUs(engine::QueryEngine& db,
                      const std::vector<KeptRead>& kept, Report* report) {
  Samples samples;
  for (const KeptRead& k : kept) {
    const uint64_t t0 = NowNs();
    ReadResult r = RunRead(db, k.query, kBackends[k.backend]);
    samples.Add((NowNs() - t0) / 1e3);
    report->Attempt();
    if (!r.ok) report->Fail("single-client read: " + r.error);
  }
  return samples.Mean();
}

}  // namespace

bool RunServeColumn(const Options& options, Report* report) {
  const engine::EngineOptions engine_options;
  const uint64_t stream = Mix(options.seed, kLoadStream);
  const uint64_t oracle = Mix(options.seed, kOracleStream);
  Column column;
  double setup[2];
  // Reads continue across engines; every engine is warmed by the same reads.
  std::atomic<uint64_t> next{0};
  auto warm_up = [&](engine::QueryEngine& db) {
    std::atomic<uint64_t> warm{0};
    RunWindow(db, column.elements, Mix(options.seed, kWarmupStream), &warm,
              kWarmupReads, 1e6, nullptr, report);
  };

  if (!options.trace) {
    Samples setup_s;
    Slices slices;
    ReadStats r;
    for (int e = 0; e < kEngines; ++e) {
      if (!LoadColumn(kColumnNeurons, engine_options, &column, setup)) {
        return false;
      }
      setup_s.Add(setup[0] + setup[1]);
      engine::QueryEngine& db = *column.db;
      warm_up(db);
      for (int k = 0; k < kSlicesPerEngine; ++k) {
        Window w = RunWindow(db, column.elements, stream, &next, UINT64_MAX,
                             options.seconds / (kEngines * kSlicesPerEngine),
                             nullptr, report);
        slices.Add(w.reads.all, w.seconds);
        CheckParity(db, w.reads.kept, report);
        r.Merge(std::move(w.reads));
      }
      CheckOracleRanges(db, column.elements, column.elements, Mix(oracle, e),
                        kOracleRanges / kEngines, report);
    }
    report->Set("setup_s", setup_s.Percentile(50), "s");
    slices.SetOpMetrics(report);
    report->Set("range_p50_us", r.range.Percentile(50), "us");
    report->Set("range_p99_us", r.range.Percentile(99), "us");
    report->Set("knn_p50_us", r.knn.Percentile(50), "us");
    report->Set("knn_p99_us", r.knn.Percentile(99), "us");
    report->Set("range_sim_us", Ratio(r.range_sim_us, r.range.size()), "us");
    report->Set("read_repins", r.repins, "count");
    return true;
  }

  if (!LoadColumn(kColumnNeurons, engine_options, &column, setup)) {
    return false;
  }
  report->Set("setup.generate_s", setup[0], "s");
  report->Set("setup.load_s", setup[1], "s");
  MeasureBackendBuilds(column.elements, engine_options, report);
  engine::QueryEngine& db = *column.db;
  warm_up(db);
  SpanRecorder spans;
  Window plain = RunWindow(db, column.elements, stream, &next, UINT64_MAX,
                           options.seconds / 2, nullptr, report);
  Window traced = RunWindow(db, column.elements, stream, &next, UINT64_MAX,
                            options.seconds / 2, &spans, report);
  CheckParity(db, plain.reads.kept, report);
  CheckParity(db, traced.reads.kept, report);
  CheckOracleRanges(db, column.elements, column.elements, oracle,
                    kOracleRanges, report);

  ReplayReadLayers(db, traced.reads.kept, /*attribute=*/true, &spans,
                   report);
  SetReadPoolMetrics(traced.reads, report);
  report->Set("trace.overhead_pct",
              OverheadPct(plain.reads.all, traced.reads.all), "%");
  report->Set("trace.coverage", spans.Coverage(), "ratio");
  WriteTrace(options, spans);

  // Waiting at the engine: the same reads from 4 clients and from 1.
  Samples four;
  for (const KeptRead& k : traced.reads.kept) four.Add(k.us);
  const double one_on = SingleClientUs(db, traced.reads.kept, report);
  report->Set("engine.warm_wait_us", four.Mean() - one_on, "us");

  // The cost of metrics: one client, the same reads, metrics on and off.
  // Each engine replays the reads twice and the second pass is compared:
  // the first leaves both engines' pools in the same state.
  const double on = SingleClientUs(db, traced.reads.kept, report);
  engine::EngineOptions off_options = engine_options;
  off_options.metrics = engine::MetricsMode::kOff;
  if (!LoadColumn(kColumnNeurons, off_options, &column, setup)) return false;
  warm_up(*column.db);
  SingleClientUs(*column.db, traced.reads.kept, report);
  const double off = SingleClientUs(*column.db, traced.reads.kept, report);
  report->Set("obs.metrics_on_overhead_pct", (Ratio(on, off) - 1.0) * 100.0,
              "%");
  return true;
}

}  // namespace neurobench
