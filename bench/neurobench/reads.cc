// neurobench — the read mix shared by serve_column and the ingest
// workloads: issuing reads, checking them, and replaying them layer by
// layer (see neurobench.h).

#include <algorithm>

#include "neurobench.h"

namespace neurobench {

neuro::WorkloadQuery ReadRequest(const geom::Aabb& domain,
                                 const geom::ElementVec& elements,
                                 uint64_t seed, uint64_t i) {
  static const neuro::MixedWorkloadOptions mix = [] {
    neuro::MixedWorkloadOptions m;
    m.knn_fraction = 0.3;
    m.side_min = 8.0f;
    m.side_max = 60.0f;
    m.k_min = 1;
    m.k_max = 32;
    m.data_centered_fraction = 0.5;
    return m;
  }();
  return neuro::MixedWorkloadQuery(domain, elements, mix, Mix(seed, i));
}

ReadResult RunRead(engine::QueryEngine& db, const neuro::WorkloadQuery& q,
                   engine::BackendChoice backend) {
  ReadResult out;
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status status;
    if (q.kind == neuro::QueryKind::kKnn) {
      engine::KnnRequest request;
      request.point = q.point;
      request.k = q.k;
      request.backend = backend;
      request.cache = engine::CachePolicy::kWarm;
      Result<engine::KnnReport> report = db.Execute(request);
      status = report.status();
      if (report.ok()) {
        out.results = report->hits.size();
        out.hits = std::move(report->hits);
        out.sim_us = report->rows.front().stats.time_us;
        out.pool = report->pool;
      }
    } else {
      engine::RangeRequest request;
      request.box = q.box;
      request.backend = backend;
      request.cache = engine::CachePolicy::kWarm;
      Result<engine::RangeReport> report = db.Execute(request);
      status = report.status();
      if (report.ok()) {
        out.results = report->results;
        out.sim_us = report->rows.front().stats.time_us;
        out.pool = report->pool;
      }
    }
    if (status.ok()) {
      out.ok = true;
      return out;
    }
    out.error = status.ToString();
    if (!status.IsOutOfRange() || attempt == 1) break;
    out.repinned = true;
  }
  return out;
}

void ReadStats::Merge(ReadStats&& other) {
  all.Append(other.all);
  range.Append(other.range);
  knn.Append(other.knn);
  repins += other.repins;
  range_sim_us += other.range_sim_us;
  pool += other.pool;
  for (KeptRead& k : other.kept) kept.push_back(std::move(k));
  std::sort(kept.begin(), kept.end(), [](const KeptRead& a, const KeptRead& b) {
    return a.index < b.index;
  });
}

void SendRead(engine::QueryEngine& db, const geom::ElementVec& elements,
               uint64_t stream, uint64_t i, const KeepPolicy& keep,
               SpanRecorder* spans, ReadStats* stats, Report* report) {
  const neuro::WorkloadQuery q = ReadRequest(db.domain(), elements, stream, i);
  const size_t b = BackendIndex(stream, i);
  const bool knn = q.kind == neuro::QueryKind::kKnn;
  uint64_t span = 0;
  const uint64_t t0 = NowNs();
  ReadResult r;
  {
    ScopedSpan s(spans, knn ? "engine.knn" : "engine.range", i);
    r = RunRead(db, q, kBackends[b]);
    span = s.id();
  }
  const double us = (NowNs() - t0) / 1e3;
  report->Attempt();
  if (!r.ok) {
    report->Fail("read " + std::to_string(i) + ": " + r.error);
    return;
  }
  stats->all.Add(us);
  (knn ? stats->knn : stats->range).Add(us);
  stats->repins += r.repinned;
  if (!knn) stats->range_sim_us += r.sim_us;
  stats->pool += r.pool;
  const bool check = keep.check_every != 0 && i % keep.check_every == 0;
  const bool replay =
      spans != nullptr && keep.replay_every != 0 && i % keep.replay_every == 0;
  if (check || replay) {
    stats->kept.push_back(KeptRead{i, q, b, std::move(r), us, span, check});
  }
}

void ReplayReadLayers(engine::QueryEngine& db,
                      const std::vector<KeptRead>& kept, bool attribute,
                      SpanRecorder* spans, Report* report) {
  const size_t pool_pages = db.options().pool_pages;
  engine::SpatialBackend* backends[4] = {db.flat_backend(), db.rtree_backend(),
                                         db.grid_backend(),
                                         db.sharded_backend()};
  static const char* const kRangeSpan[4] = {
      "backend.flat.range", "backend.rtree.range", "backend.grid.range",
      "backend.sharded.range"};
  static const char* const kKnnSpan[4] = {"backend.flat.knn",
                                          "backend.rtree.knn",
                                          "backend.grid.knn",
                                          "backend.sharded.knn"};

  // The FLAT replays of reads the engine routed to FLAT: the FlatIndex
  // calls below are their children (engine → backend → flat).
  std::vector<uint64_t> flat_replay_span(kept.size(), 0);
  for (size_t b = 0; b < 4; ++b) {
    SimClock warm_clock, cold_clock;
    storage::PoolSet warm = backends[b]->MakePoolSet(pool_pages, &warm_clock,
                                                     db.options().cost);
    storage::PoolSet cold = backends[b]->MakePoolSet(pool_pages, &cold_clock,
                                                     db.options().cost);
    uint64_t ranges = 0, knns = 0, results = 0, scanned = 0, sim_us = 0;
    uint64_t range_pages = 0, knn_pages = 0, leaf = 0, inner = 0;
    for (size_t j = 0; j < kept.size(); ++j) {
      const KeptRead& k = kept[j];
      const bool knn = k.query.kind == neuro::QueryKind::kKnn;
      engine::RangeStats stats, cold_stats;
      std::vector<geom::KnnHit> hits;
      geom::CountingVisitor count;
      const uint64_t c0 = warm_clock.NowMicros();
      const uint64_t t0 = NowNs();
      Status status =
          knn ? backends[b]->KnnQueryAt(storage::kLatestEpoch, k.query.point,
                                        k.query.k, &warm, &hits, &stats)
              : backends[b]->RangeQueryAt(storage::kLatestEpoch, k.query.box,
                                          &warm, count, &stats);
      const uint64_t t1 = NowNs();
      // The replay on the backend the engine used is the read's child.
      const bool routed = attribute && b == k.backend;
      const uint64_t id = spans->Add(knn ? kKnnSpan[b] : kRangeSpan[b],
                                     routed ? k.span : 0, k.index, t0, t1);
      if (routed && b == 0) flat_replay_span[j] = id;
      cold.EvictAll();
      if (status.ok()) {
        status = knn ? backends[b]->KnnQueryAt(storage::kLatestEpoch,
                                               k.query.point, k.query.k, &cold,
                                               &hits, &cold_stats)
                     : backends[b]->RangeQueryAt(storage::kLatestEpoch,
                                                 k.query.box, &cold, count,
                                                 &cold_stats);
      }
      report->Attempt();
      if (!status.ok()) {
        report->Fail(std::string("replay on ") + kBackendNames[b] + ": " +
                     status.ToString());
        return;
      }
      if (knn) {
        ++knns;
        knn_pages += cold_stats.pages_read;
        continue;
      }
      ++ranges;
      range_pages += cold_stats.pages_read;
      results += stats.results;
      scanned += stats.elements_scanned;
      sim_us += warm_clock.NowMicros() - c0;
      const std::vector<uint64_t>& levels = cold_stats.nodes_per_level;
      for (size_t l = 0; l < levels.size(); ++l) {
        (l == 0 ? leaf : inner) += levels[l];
      }
    }
    const std::string prefix = std::string("backend.") + kBackendNames[b];
    report->Set(prefix + ".range_us", spans->MeanUs(kRangeSpan[b]), "us");
    report->Set(prefix + ".knn_us", spans->MeanUs(kKnnSpan[b]), "us");
    report->Set(prefix + ".pages_per_range", Ratio(range_pages, ranges),
                "pages");
    report->Set(prefix + ".pages_per_knn", Ratio(knn_pages, knns), "pages");
    report->Set(prefix + ".scanned_per_result", Ratio(scanned, results),
                "ratio");
    report->Set(prefix + ".range_sim_us", Ratio(sim_us, ranges), "us");
    if (backends[b] == db.rtree_backend()) {
      report->Set("rtree.leaf_nodes_per_query", Ratio(leaf, ranges), "nodes");
      report->Set("rtree.inner_nodes_per_query", Ratio(inner, ranges),
                  "nodes");
    }
  }
  if (attribute) {
    report->Set("engine.range_self_us", spans->MeanSelfUs("engine.range"),
                "us");
    report->Set("engine.knn_self_us", spans->MeanSelfUs("engine.knn"), "us");
  }

  // FlatIndex directly, on a warm pool of its own; for FLAT-routed reads
  // the difference to the backend replay is the base+delta wrapper's self
  // time.
  const flat::FlatIndex& index = db.flat_index();
  storage::BufferPool pool(db.flat_backend()->store(), pool_pages);
  uint64_t ranges = 0, knns = 0, seed_nodes = 0, crawl_pages = 0, rings = 0;
  for (size_t j = 0; j < kept.size(); ++j) {
    const KeptRead& k = kept[j];
    const bool knn = k.query.kind == neuro::QueryKind::kKnn;
    flat::FlatQueryStats stats;
    std::vector<geom::KnnHit> hits;
    geom::CountingVisitor count;
    const uint64_t t0 = NowNs();
    Status status =
        knn ? index.Knn(k.query.point, k.query.k, &pool, &hits, &stats)
            : index.RangeQuery(k.query.box, &pool, count, &stats);
    spans->Add(knn ? "flat.knn" : "flat.range", flat_replay_span[j], k.index,
               t0, NowNs());
    report->Attempt();
    if (!status.ok()) {
      report->Fail("FlatIndex replay: " + status.ToString());
      return;
    }
    if (knn) {
      ++knns;
      rings += stats.knn_rings;
    } else {
      ++ranges;
      seed_nodes += stats.seed_nodes_visited;
      crawl_pages += stats.data_pages_read;
    }
  }
  report->Set("flat.range_us", spans->MeanUs("flat.range"), "us");
  report->Set("flat.seed_nodes_per_query", Ratio(seed_nodes, ranges), "nodes");
  report->Set("flat.crawl_pages_per_query", Ratio(crawl_pages, ranges),
              "pages");
  report->Set("flat.knn_rings_per_query", Ratio(rings, knns), "rings");
}

void SetReadPoolMetrics(const ReadStats& reads, Report* report) {
  const double n = static_cast<double>(reads.all.size());
  report->Set("storage.pool_hit_ratio",
              Ratio(reads.pool.hits, reads.pool.accesses()), "ratio");
  report->Set("storage.pool_misses_per_query", Ratio(reads.pool.misses, n),
              "pages");
  report->Set("storage.evictions_per_query", Ratio(reads.pool.evictions, n),
              "pages");
  report->Set("storage.sim_us_per_read",
              Ratio(reads.range_sim_us, reads.range.size()), "us");
  report->Set("engine.read_repins", reads.repins, "count");
}

namespace {

/// Sorted ids of `elements` intersecting `box` (the brute-force oracle).
std::vector<geom::ElementId> BruteForceRange(const geom::ElementVec& elements,
                                             const geom::Aabb& box) {
  std::vector<geom::ElementId> ids;
  for (const geom::SpatialElement& e : elements) {
    if (e.bounds.Intersects(box)) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Sorted ids the engine returns for `box` on `backend`.
Result<std::vector<geom::ElementId>> EngineRange(
    engine::QueryEngine& db, const geom::Aabb& box,
    engine::BackendChoice backend) {
  engine::RangeRequest request;
  request.box = box;
  request.backend = backend;
  request.cache = engine::CachePolicy::kWarm;
  Status status;
  for (int attempt = 0; attempt < 2; ++attempt) {
    geom::CollectingVisitor out;
    Result<engine::RangeReport> report = db.Execute(request, out);
    if (report.ok()) {
      std::vector<geom::ElementId> ids = out.Ids();
      std::sort(ids.begin(), ids.end());
      return ids;
    }
    status = report.status();
    if (!status.IsOutOfRange()) break;
  }
  return status;
}

}  // namespace

void CheckOracleRanges(engine::QueryEngine& db,
                       const geom::ElementVec& request_elements,
                       const geom::ElementVec& live, uint64_t stream,
                       uint64_t count, Report* report) {
  uint64_t checked = 0;
  for (uint64_t i = 0; checked < count; ++i) {
    const neuro::WorkloadQuery q =
        ReadRequest(db.domain(), request_elements, stream, i);
    if (q.kind != neuro::QueryKind::kRange) continue;
    ++checked;
    report->Attempt();
    auto ids = EngineRange(db, q.box, kBackends[BackendIndex(stream, i)]);
    if (!ids.ok() || *ids != BruteForceRange(live, q.box)) {
      report->Fail("oracle range " + std::to_string(i));
    }
  }
}

}  // namespace neurobench
