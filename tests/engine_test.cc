// Tests of the engine API: backend parity through the visitor protocol,
// RangeRequest{kAll} reproducing the legacy CompareRangeQuery panel, batch
// execution stats, incremental Session stepping and boundary validation.

#include "engine/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/toolkit.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"
#include "scout/session.h"

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::Vec3;

neuro::Circuit MakeCircuit(uint32_t neurons, uint64_t seed) {
  neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  auto circuit = neuro::CircuitGenerator(params).Generate();
  EXPECT_TRUE(circuit.ok());
  return std::move(circuit).value();
}

std::vector<ElementId> SortedIds(const CollectingVisitor& visitor) {
  std::vector<ElementId> ids = visitor.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    circuit_ = MakeCircuit(20, 2024);
    EngineOptions options;
    options.flat.elems_per_page = 64;
    options.rtree.max_entries = 64;
    db_ = std::make_unique<QueryEngine>(options);
    ASSERT_TRUE(db_->LoadCircuit(circuit_).ok());
  }

  neuro::Circuit circuit_;
  std::unique_ptr<QueryEngine> db_;
};

// --------------------------------------------------------------------------
// Backend parity (property test)
// --------------------------------------------------------------------------

TEST(BackendParityTest, FlatAndRTreeAgreeOnRandomWorkloads) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    // A random segment cloud — sparser and less connected than tissue, so
    // this also exercises FLAT's rescue pass.
    Aabb domain(Vec3(0, 0, 0), Vec3(300, 300, 300));
    neuro::SegmentDataset cloud =
        neuro::UniformSegments(4000, domain, 6.0f, 2.0f, 0.5f, seed);
    geom::ElementVec elements = cloud.Elements();

    FlatBackend flat;
    PagedRTreeBackend rtree;
    ASSERT_TRUE(flat.Build(elements).ok());
    ASSERT_TRUE(rtree.Build(elements).ok());

    auto queries = neuro::DataCenteredQueries(elements, 40.0f, 6, seed + 10);
    auto uniform = neuro::UniformQueries(domain, 25.0f, 6, seed + 20);
    queries.insert(queries.end(), uniform.begin(), uniform.end());

    for (const Aabb& box : queries) {
      storage::PoolSet flat_pools = flat.MakePoolSet(4096);
      storage::PoolSet rtree_pools = rtree.MakePoolSet(4096);
      CollectingVisitor flat_out;
      CollectingVisitor rtree_out;
      RangeStats flat_stats, rtree_stats;
      ASSERT_TRUE(
          flat.RangeQuery(box, &flat_pools, flat_out, &flat_stats).ok());
      ASSERT_TRUE(
          rtree.RangeQuery(box, &rtree_pools, rtree_out, &rtree_stats).ok());
      EXPECT_EQ(SortedIds(flat_out), SortedIds(rtree_out))
          << "seed " << seed << " box " << box;
      EXPECT_EQ(flat_stats.results, flat_out.size());
      EXPECT_EQ(rtree_stats.results, rtree_out.size());
    }
  }
}

TEST_F(EngineFixture, KAllCrossChecksBackends) {
  auto queries = neuro::DataCenteredQueries(
      circuit_.FlattenSegments().Elements(), 40.0f, 5, 3);
  for (const Aabb& box : queries) {
    RangeRequest request;
    request.box = box;
    request.backend = BackendChoice::kAll;
    auto report = db_->Execute(request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->results_match);
    ASSERT_EQ(report->rows.size(), 4u);
    EXPECT_EQ(report->rows[0].method, "FLAT");
    EXPECT_EQ(report->rows[1].method, "R-Tree");
    EXPECT_EQ(report->rows[2].method, "Grid");
    EXPECT_EQ(report->rows[3].method, "Sharded");
    for (size_t i = 1; i < report->rows.size(); ++i) {
      EXPECT_EQ(report->rows[0].stats.results, report->rows[i].stats.results);
    }
    EXPECT_GT(report->results, 0u);
  }
}

// --------------------------------------------------------------------------
// Legacy panel reproduction
// --------------------------------------------------------------------------

TEST_F(EngineFixture, RangeRequestAllReproducesCompareRangeQuery) {
  // Reconstruct the pre-engine CompareRangeQuery by hand: each index run
  // against a fresh cold pool with its own clock, exactly as toolkit.cc
  // used to do — then check RangeRequest{kAll} reports the same numbers.
  Aabb box = Aabb::Cube(db_->domain().Center(), 40.0f);

  flat::FlatQueryStats flat_stats;
  std::vector<ElementId> flat_ids;
  {
    SimClock clock;
    storage::BufferPool pool(db_->flat_backend()->store(),
                             db_->options().pool_pages, &clock,
                             db_->options().cost);
    ASSERT_TRUE(
        db_->flat_index().RangeQuery(box, &pool, &flat_ids, &flat_stats).ok());
  }
  rtree::QueryStats rtree_stats;
  std::vector<ElementId> rtree_ids;
  {
    SimClock clock;
    storage::BufferPool pool(db_->rtree_backend()->store(),
                             db_->options().pool_pages, &clock,
                             db_->options().cost);
    ASSERT_TRUE(
        db_->paged_rtree().RangeQuery(box, &rtree_ids, &pool, &rtree_stats)
            .ok());
  }

  RangeRequest request;
  request.box = box;
  request.backend = BackendChoice::kAll;
  request.cache = CachePolicy::kCold;
  auto report = db_->Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->results_match);
  EXPECT_EQ(report->rows[0].stats.pages_read, flat_stats.data_pages_read);
  EXPECT_EQ(report->rows[0].stats.results, flat_stats.results);
  EXPECT_EQ(report->rows[0].stats.elements_scanned,
            flat_stats.elements_scanned);
  EXPECT_EQ(report->rows[1].stats.pages_read, rtree_stats.nodes_visited);
  EXPECT_EQ(report->rows[1].stats.results, rtree_stats.results);
  EXPECT_EQ(report->rows[1].stats.nodes_per_level,
            rtree_stats.nodes_per_level);

  // The compatibility shim reports the same rows in the legacy shape.
  core::ToolkitOptions toolkit_options;
  toolkit_options.flat.elems_per_page = 64;
  toolkit_options.rtree.max_entries = 64;
  core::NeuroToolkit tk(toolkit_options);
  ASSERT_TRUE(tk.LoadCircuit(circuit_).ok());
  auto legacy = tk.CompareRangeQuery(box);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->flat.pages_read, report->rows[0].stats.pages_read);
  EXPECT_EQ(legacy->flat.time_us, report->rows[0].stats.time_us);
  EXPECT_EQ(legacy->flat.results, report->rows[0].stats.results);
  EXPECT_EQ(legacy->rtree.pages_read, report->rows[1].stats.pages_read);
  EXPECT_EQ(legacy->rtree.time_us, report->rows[1].stats.time_us);
  EXPECT_EQ(legacy->rtree.nodes_per_level,
            report->rows[1].stats.nodes_per_level);
}

// --------------------------------------------------------------------------
// Streaming visitors
// --------------------------------------------------------------------------

TEST_F(EngineFixture, VisitorStreamsEachResultExactlyOnce) {
  RangeRequest request;
  request.box = Aabb::Cube(db_->domain().Center(), 40.0f);
  request.backend = BackendChoice::kAll;

  CollectingVisitor collected;
  auto report = db_->Execute(request, collected);
  ASSERT_TRUE(report.ok());
  // kAll runs two backends but the caller sees the primary's stream once.
  EXPECT_EQ(collected.size(), report->results);

  CountingVisitor counted;
  auto recount = db_->Execute(request, counted);
  ASSERT_TRUE(recount.ok());
  EXPECT_EQ(counted.count(), report->results);
}

// --------------------------------------------------------------------------
// Batch execution
// --------------------------------------------------------------------------

TEST_F(EngineFixture, ExecuteBatchAggregatesPerQueryStats) {
  auto boxes = neuro::DataCenteredQueries(
      circuit_.FlattenSegments().Elements(), 30.0f, 6, 11);
  std::vector<RangeRequest> batch;
  for (const Aabb& box : boxes) {
    RangeRequest request;
    request.box = box;
    request.backend = BackendChoice::kFlat;
    request.cache = CachePolicy::kWarm;
    batch.push_back(request);
  }
  auto result = db_->ExecuteBatch(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->reports.size(), batch.size());
  EXPECT_EQ(result->aggregate.queries, batch.size());

  uint64_t pages = 0, results = 0;
  for (const RangeReport& report : result->reports) {
    ASSERT_EQ(report.rows.size(), 1u);
    pages += report.rows[0].stats.pages_read;
    results += report.results;
  }
  EXPECT_EQ(result->aggregate.pages_read, pages);
  EXPECT_EQ(result->aggregate.results, results);
  EXPECT_EQ(result->aggregate.pool_hits + result->aggregate.pool_misses,
            pages);
  EXPECT_GT(result->aggregate.time_us, 0u);
}

TEST_F(EngineFixture, ExecuteBatchSharesWarmPoolAcrossRequests) {
  Aabb box = Aabb::Cube(db_->domain().Center(), 40.0f);
  RangeRequest warm;
  warm.box = box;
  warm.backend = BackendChoice::kFlat;
  warm.cache = CachePolicy::kWarm;
  std::vector<RangeRequest> batch = {warm, warm};
  auto result = db_->ExecuteBatch(batch);
  ASSERT_TRUE(result.ok());
  // The second identical query is served from the shared warm pool.
  EXPECT_GT(result->aggregate.pool_hits, 0u);
  EXPECT_EQ(result->aggregate.pool_misses,
            result->reports[0].rows[0].stats.pages_read);

  // Warm pools are the engine's persistent PoolManager sets: a second
  // batch on the same engine starts where the first left off, so the warm
  // request misses nothing at all.
  auto again = db_->ExecuteBatch(batch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->aggregate.pool_misses, 0u);
  EXPECT_EQ(again->aggregate.pool_hits,
            2 * again->reports[0].rows[0].stats.pages_read);

  // Cold requests drop the shared pool before running: the leading warm
  // request rides the surviving pool for free, the cold one evicts it and
  // pays its pages in full.
  RangeRequest cold = warm;
  cold.cache = CachePolicy::kCold;
  std::vector<RangeRequest> cold_batch = {warm, cold};
  auto cold_result = db_->ExecuteBatch(cold_batch);
  ASSERT_TRUE(cold_result.ok());
  EXPECT_EQ(cold_result->aggregate.pool_misses,
            cold_result->reports[1].rows[0].stats.pages_read);

  // Cold evicts *before* executing, so the cold request itself leaves a
  // warm pool behind — the next warm batch rides it.
  auto after_cold = db_->ExecuteBatch(batch);
  ASSERT_TRUE(after_cold.ok());
  EXPECT_EQ(after_cold->aggregate.pool_misses, 0u);
}

TEST_F(EngineFixture, MixedBatchAggregatesAcrossRangeAndKnn) {
  auto boxes = neuro::DataCenteredQueries(
      circuit_.FlattenSegments().Elements(), 30.0f, 4, 13);
  std::vector<QueryRequest> batch;
  for (size_t i = 0; i < boxes.size(); ++i) {
    RangeRequest range;
    range.box = boxes[i];
    range.backend = BackendChoice::kFlat;
    range.cache = CachePolicy::kWarm;
    batch.emplace_back(range);

    KnnRequest knn;
    knn.point = boxes[i].Center();
    knn.k = 5 + i;
    knn.backend = BackendChoice::kRTree;
    knn.cache = CachePolicy::kWarm;
    batch.emplace_back(knn);
  }

  auto result = db_->ExecuteBatch(std::span<const QueryRequest>(batch));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->reports.size(), batch.size());
  EXPECT_EQ(result->aggregate.queries, batch.size());

  uint64_t pages = 0, results = 0;
  for (size_t i = 0; i < result->reports.size(); ++i) {
    if (const auto* range = std::get_if<RangeReport>(&result->reports[i])) {
      ASSERT_EQ(range->rows.size(), 1u);
      EXPECT_EQ(range->rows[0].method, "FLAT");
      pages += range->rows[0].stats.pages_read;
      results += range->results;
    } else {
      const KnnReport& knn = std::get<KnnReport>(result->reports[i]);
      ASSERT_EQ(knn.rows.size(), 1u);
      EXPECT_EQ(knn.rows[0].method, "R-Tree");
      EXPECT_EQ(knn.hits.size(), 5 + i / 2);
      pages += knn.rows[0].stats.pages_read;
      results += knn.hits.size();
    }
  }
  EXPECT_EQ(result->aggregate.pages_read, pages);
  EXPECT_EQ(result->aggregate.results, results);
  EXPECT_EQ(result->aggregate.pool_hits + result->aggregate.pool_misses,
            pages);
  EXPECT_GT(result->aggregate.time_us, 0u);

  // The request order alternates Range, Knn — reports must mirror it.
  for (size_t i = 0; i < result->reports.size(); ++i) {
    EXPECT_EQ(result->reports[i].index(), i % 2);
  }
}

TEST_F(EngineFixture, RangeOnlyBatchMatchesMixedBatch) {
  auto boxes = neuro::DataCenteredQueries(
      circuit_.FlattenSegments().Elements(), 30.0f, 5, 29);
  std::vector<RangeRequest> plain;
  std::vector<QueryRequest> mixed;
  for (const Aabb& box : boxes) {
    RangeRequest request;
    request.box = box;
    request.backend = BackendChoice::kFlat;
    request.cache = CachePolicy::kWarm;
    plain.push_back(request);
    mixed.emplace_back(request);
  }
  // Warm batches run over the engine's persistent pools, so a fair
  // comparison needs two engines in the same (fresh) state.
  QueryEngine mixed_db(db_->options());
  ASSERT_TRUE(mixed_db.LoadCircuit(circuit_).ok());
  auto plain_result = db_->ExecuteBatch(plain);
  auto mixed_result =
      mixed_db.ExecuteBatch(std::span<const QueryRequest>(mixed));
  ASSERT_TRUE(plain_result.ok());
  ASSERT_TRUE(mixed_result.ok());
  EXPECT_EQ(plain_result->aggregate.pages_read,
            mixed_result->aggregate.pages_read);
  EXPECT_EQ(plain_result->aggregate.results, mixed_result->aggregate.results);
  EXPECT_EQ(plain_result->aggregate.time_us, mixed_result->aggregate.time_us);
}

// --------------------------------------------------------------------------
// Result cache: delta range requests (CachePolicy::kDelta)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, DeltaRequestMatchesColdExecutionExactly) {
  Aabb box = Aabb::Cube(db_->domain().Center(), 50.0f);
  // A shifted box overlapping the first one by half along x.
  Aabb shifted = box;
  shifted.min.x += 25.0f;
  shifted.max.x += 25.0f;

  auto cold_ids = [&](const Aabb& b) {
    RangeRequest request;
    request.box = b;
    request.backend = BackendChoice::kFlat;
    request.cache = CachePolicy::kCold;
    CollectingVisitor out;
    auto report = db_->Execute(request, out);
    EXPECT_TRUE(report.ok());
    return SortedIds(out);
  };
  auto delta_ids = [&](const Aabb& b, RangeReport* report_out) {
    RangeRequest request;
    request.box = b;
    request.backend = BackendChoice::kFlat;
    request.cache = CachePolicy::kDelta;
    CollectingVisitor out;
    auto report = db_->Execute(request, out);
    EXPECT_TRUE(report.ok());
    if (report.ok() && report_out != nullptr) *report_out = *report;
    return SortedIds(out);
  };

  RangeReport first, second, third;
  EXPECT_EQ(delta_ids(box, &first), cold_ids(box));
  // First delta request: nothing cached yet.
  EXPECT_EQ(first.cache_hit_fraction, 0.0);

  EXPECT_EQ(delta_ids(shifted, &second), cold_ids(shifted));
  // Second request half-covers the first box.
  EXPECT_GT(second.cache_hit_fraction, 0.0);
  EXPECT_LT(second.delta_volume_fraction, 1.0);

  // Repeating the request is a full cache hit: no pages at all.
  EXPECT_EQ(delta_ids(shifted, &third), cold_ids(shifted));
  EXPECT_EQ(third.cache_hit_fraction, 1.0);
  EXPECT_EQ(third.rows[0].stats.pages_read, 0u);

  EXPECT_GT(db_->result_cache()->stats().hits, 0u);
}

TEST_F(EngineFixture, DeltaBatchReportsCacheFractionsAndSavesPages) {
  // A sliding window: consecutive boxes overlap by ~2/3.
  std::vector<Aabb> boxes;
  Aabb window = Aabb::Cube(db_->domain().Center(), 45.0f);
  for (int i = 0; i < 6; ++i) {
    boxes.push_back(window);
    window.min.x += 15.0f;
    window.max.x += 15.0f;
  }

  auto run = [&](CachePolicy policy) {
    // A fresh engine per run: warm/delta state is persistent.
    QueryEngine db(db_->options());
    EXPECT_TRUE(db.LoadCircuit(circuit_).ok());
    std::vector<RangeRequest> batch;
    for (const Aabb& box : boxes) {
      RangeRequest request;
      request.box = box;
      request.backend = BackendChoice::kFlat;
      request.cache = policy;
      batch.push_back(request);
    }
    auto result = db.ExecuteBatch(batch);
    EXPECT_TRUE(result.ok());
    return *result;
  };

  BatchResult warm = run(CachePolicy::kWarm);
  BatchResult delta = run(CachePolicy::kDelta);

  // Same answers, request by request.
  ASSERT_EQ(warm.reports.size(), delta.reports.size());
  for (size_t i = 0; i < warm.reports.size(); ++i) {
    EXPECT_EQ(warm.reports[i].results, delta.reports[i].results)
        << "request " << i;
  }

  // The delta batch answered overlap from the cache: fewer pages touched
  // than even the warm pool path, and the aggregate says why.
  EXPECT_EQ(delta.aggregate.delta_requests, boxes.size());
  EXPECT_GT(delta.aggregate.cache_hit_fraction, 0.3);
  EXPECT_LT(delta.aggregate.delta_volume_fraction, 0.7);
  EXPECT_LT(delta.aggregate.pages_read, warm.aggregate.pages_read);

  // Warm batches never consult the cache.
  EXPECT_EQ(warm.aggregate.delta_requests, 0u);
}

TEST_F(EngineFixture, DeltaWithKAllFallsBackToPlainWarmParity) {
  Aabb box = Aabb::Cube(db_->domain().Center(), 40.0f);
  RangeRequest request;
  request.box = box;
  request.backend = BackendChoice::kAll;
  request.cache = CachePolicy::kDelta;
  auto first = db_->Execute(request);
  auto second = db_->Execute(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // kAll keeps its full cross-check: every backend really executed.
  EXPECT_EQ(first->rows.size(), db_->NumBackends());
  EXPECT_TRUE(first->results_match);
  EXPECT_EQ(first->results, second->results);
  EXPECT_EQ(first->cache_hit_fraction, 0.0);
}

TEST_F(EngineFixture, PoolManagerExposesWarmState) {
  storage::PoolManager* manager = db_->pool_manager();
  ASSERT_NE(manager, nullptr);
  // One named set per registered backend, created at LoadCircuit.
  EXPECT_EQ(manager->NumSets(), db_->NumBackends());
  EXPECT_NE(manager->Find("FLAT"), nullptr);
  EXPECT_NE(manager->Find("Sharded"), nullptr);
  EXPECT_EQ(manager->Find("NoSuchBackend"), nullptr);
  // The sharded backend's set carries one pool per shard.
  EXPECT_EQ(manager->Find("Sharded")->size(),
            db_->sharded_backend()->NumShards());

  RangeRequest request;
  request.box = Aabb::Cube(db_->domain().Center(), 40.0f);
  request.backend = BackendChoice::kFlat;
  request.cache = CachePolicy::kWarm;
  ASSERT_TRUE(db_->Execute(request).ok());
  storage::PoolManagerStats stats = manager->Stats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.pages_cached, 0u);

  ASSERT_TRUE(db_->Execute(request).ok());
  stats = manager->Stats();
  EXPECT_GT(stats.hits, 0u);

  // Evicting the FLAT set empties it and counts the dropped pages.
  uint64_t evictions_before = stats.evictions;
  EXPECT_TRUE(manager->Evict("FLAT"));
  stats = manager->Stats();
  EXPECT_GT(stats.evictions, evictions_before);
  EXPECT_EQ(manager->Find("FLAT")->PagesCached(), 0u);
}

// --------------------------------------------------------------------------
// Sessions
// --------------------------------------------------------------------------

TEST_F(EngineFixture, SessionStepMatchesWholePathReplay) {
  auto path = neuro::FollowBranchPath(circuit_, 1, 12.0f, 1);
  ASSERT_TRUE(path.ok());
  auto queries = neuro::PathQueries(*path, 30.0f);
  ASSERT_GT(queries.size(), 2u);

  for (auto method : scout::AllPrefetchMethods()) {
    auto session = db_->OpenSession(method);
    ASSERT_TRUE(session.ok()) << scout::PrefetchMethodName(method);
    for (const Aabb& box : queries) {
      ASSERT_TRUE(session->Step(box).ok());
    }
    EXPECT_EQ(session->NumSteps(), queries.size());
    scout::SessionResult stepped = session->Summary();

    WalkthroughRequest request;
    request.queries = queries;
    request.method = method;
    auto replayed = db_->Execute(request);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(stepped.total_stall_us, replayed->total_stall_us);
    EXPECT_EQ(stepped.total_time_us, replayed->total_time_us);
    EXPECT_EQ(stepped.pages_missed, replayed->pages_missed);
    EXPECT_EQ(stepped.prefetch_issued, replayed->prefetch_issued);
    EXPECT_EQ(stepped.prefetch_used, replayed->prefetch_used);

    // And both match the original scout replay loop over the same index.
    scout::WalkthroughSession legacy(&db_->flat_index(),
                                     db_->flat_backend()->store(),
                                     &db_->resolver(),
                                     db_->options().session);
    auto legacy_run = legacy.Run(queries, method);
    ASSERT_TRUE(legacy_run.ok());
    EXPECT_EQ(stepped.total_stall_us, legacy_run->total_stall_us);
    EXPECT_EQ(stepped.pages_missed, legacy_run->pages_missed);
  }
}

TEST_F(EngineFixture, SessionStepStreamsResults) {
  auto session = db_->OpenSession(scout::PrefetchMethod::kNone);
  ASSERT_TRUE(session.ok());
  CollectingVisitor visitor;
  auto step = session->Step(Aabb::Cube(db_->domain().Center(), 40.0f), visitor);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(step->results, visitor.size());
  EXPECT_GT(step->results, 0u);
  EXPECT_GT(step->stall_us, 0u);
}

TEST_F(EngineFixture, SessionStepKnnMatchesEngineExecute) {
  auto path = neuro::FollowBranchPath(circuit_, 1, 12.0f, 1);
  ASSERT_TRUE(path.ok());
  ASSERT_GT(path->waypoints.size(), 2u);

  for (auto method :
       {scout::PrefetchMethod::kNone, scout::PrefetchMethod::kScout}) {
    auto session = db_->OpenSession(method);
    ASSERT_TRUE(session.ok());
    size_t steps = 0;
    for (const auto& waypoint : path->waypoints) {
      std::vector<geom::KnnHit> stepped;
      auto step = session->StepKnn(waypoint, 8, &stepped);
      ASSERT_TRUE(step.ok()) << step.status().ToString();
      EXPECT_EQ(step->results, stepped.size());
      ++steps;

      // Whole-path replay of the same query through the engine: the session
      // pool state differs (it stays warm across steps) but the answer must
      // be identical hit-for-hit.
      KnnRequest request;
      request.point = waypoint;
      request.k = 8;
      request.backend = BackendChoice::kFlat;
      auto replayed = db_->Execute(request);
      ASSERT_TRUE(replayed.ok());
      EXPECT_EQ(stepped, replayed->hits);
    }
    EXPECT_EQ(session->NumSteps(), steps);
    // kNN steps feed the Figure 6 statistics like range steps do.
    scout::SessionResult summary = session->Summary();
    EXPECT_EQ(summary.steps.size(), steps);
    EXPECT_GT(summary.pages_missed + summary.pages_hit, 0u);
  }
}

TEST_F(EngineFixture, SessionInterleavesRangeAndKnnSteps) {
  auto session = db_->OpenSession(scout::PrefetchMethod::kScout);
  ASSERT_TRUE(session.ok());
  Aabb box = Aabb::Cube(db_->domain().Center(), 30.0f);
  ASSERT_TRUE(session->Step(box).ok());
  std::vector<geom::KnnHit> hits;
  ASSERT_TRUE(session->StepKnn(db_->domain().Center(), 5, &hits).ok());
  ASSERT_TRUE(session->Step(box).ok());
  EXPECT_EQ(session->NumSteps(), 3u);
  EXPECT_EQ(hits.size(), 5u);
}

TEST_F(EngineFixture, ScoutSessionBeatsNoPrefetch) {
  auto path = neuro::FollowBranchPath(circuit_, 1, 12.0f, 1);
  ASSERT_TRUE(path.ok());
  auto queries = neuro::PathQueries(*path, 30.0f);

  uint64_t stalls[2] = {0, 0};
  scout::PrefetchMethod methods[2] = {scout::PrefetchMethod::kNone,
                                      scout::PrefetchMethod::kScout};
  for (int i = 0; i < 2; ++i) {
    auto session = db_->OpenSession(methods[i]);
    ASSERT_TRUE(session.ok());
    for (const Aabb& box : queries) ASSERT_TRUE(session->Step(box).ok());
    stalls[i] = session->Summary().total_stall_us;
  }
  EXPECT_LT(stalls[1], stalls[0]);
}

// --------------------------------------------------------------------------
// Cached sessions (result cache + delta steps)
// --------------------------------------------------------------------------

TEST_F(EngineFixture, CachedSessionStepsMatchColdSessionExactly) {
  auto path = neuro::FollowBranchPath(circuit_, 1, 12.0f, 1);
  ASSERT_TRUE(path.ok());
  auto queries = neuro::PathQueries(*path, 30.0f);
  ASSERT_GT(queries.size(), 2u);

  for (auto method :
       {scout::PrefetchMethod::kNone, scout::PrefetchMethod::kExtrapolation,
        scout::PrefetchMethod::kScout}) {
    auto cold = db_->OpenSession(method, CachePolicy::kCold);
    auto cached = db_->OpenSession(method, CachePolicy::kWarm);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(cached.ok());
    ASSERT_NE(cached->result_cache(), nullptr);
    EXPECT_EQ(cold->result_cache(), nullptr);

    bool any_coverage = false;
    for (const Aabb& box : queries) {
      CollectingVisitor cold_out, cached_out;
      auto cold_step = cold->Step(box, cold_out);
      auto cached_step = cached->Step(box, cached_out);
      ASSERT_TRUE(cold_step.ok());
      ASSERT_TRUE(cached_step.ok());
      // Byte-identical answers, step by step.
      EXPECT_EQ(SortedIds(cached_out), SortedIds(cold_out));
      EXPECT_EQ(cached_step->results, cold_step->results);
      // With an order-insensitive prefetcher both sessions warm the pool
      // identically, so the cached step's residual queries demand a
      // subset of the cold step's pages — misses can only shrink. (Pool
      // *hit* counts may grow: residual crawls re-touch boundary pages.
      // SCOUT sees the ids in a different order in a cached session, so
      // its prefetch choices may differ either way.)
      if (method != scout::PrefetchMethod::kScout) {
        EXPECT_LE(cached_step->pages_missed, cold_step->pages_missed);
      }
      if (cached_step->cache_hit_fraction > 0.0) any_coverage = true;
    }
    // Consecutive path boxes overlap, so the cache must have covered
    // something after the first step.
    EXPECT_TRUE(any_coverage) << scout::PrefetchMethodName(method);
  }
}

TEST_F(EngineFixture, CachedSessionRepeatedBoxIsServedEntirelyFromCache) {
  auto session = db_->OpenSession(scout::PrefetchMethod::kNone,
                                  CachePolicy::kDelta);
  ASSERT_TRUE(session.ok());
  Aabb box = Aabb::Cube(db_->domain().Center(), 40.0f);

  auto first = session->Step(box);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->cache_hit_fraction, 0.0);
  EXPECT_GT(first->results, 0u);

  auto second = session->Step(box);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache_hit_fraction, 1.0);
  EXPECT_EQ(second->delta_volume_fraction, 0.0);
  EXPECT_EQ(second->results, first->results);
  // Full coverage → no residual queries → no demand I/O, no stall.
  EXPECT_EQ(second->pages_missed, 0u);
  EXPECT_EQ(second->stall_us, 0u);
}

TEST_F(EngineFixture, ColdOpenSessionOverridesEngineWideCacheDefault) {
  // An engine configured with session caching on by default must still
  // hand out genuinely cold sessions for kCold — the harness's cold
  // baselines depend on the policy argument governing both ways.
  EngineOptions options = db_->options();
  options.session.cache_results = true;
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadCircuit(circuit_).ok());

  auto cold = db.OpenSession(scout::PrefetchMethod::kNone, CachePolicy::kCold);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->result_cache(), nullptr);
  auto warm = db.OpenSession(scout::PrefetchMethod::kNone, CachePolicy::kWarm);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->result_cache(), nullptr);

  // result_cache_boxes == 0 is the engine-wide kill switch: even kWarm
  // sessions come out uncached.
  EngineOptions disabled_options = db_->options();
  disabled_options.result_cache_boxes = 0;
  QueryEngine disabled(disabled_options);
  ASSERT_TRUE(disabled.LoadCircuit(circuit_).ok());
  auto disabled_warm =
      disabled.OpenSession(scout::PrefetchMethod::kNone, CachePolicy::kWarm);
  ASSERT_TRUE(disabled_warm.ok());
  EXPECT_EQ(disabled_warm->result_cache(), nullptr);
}

TEST_F(EngineFixture, CachedWalkthroughRequestMatchesColdReplay) {
  auto path = neuro::FollowBranchPath(circuit_, 2, 10.0f, 3);
  ASSERT_TRUE(path.ok());
  auto queries = neuro::PathQueries(*path, 30.0f);

  // Extrapolation is order-insensitive, so the cached replay's prefetch
  // behaviour matches the cold one page for page and the stall comparison
  // below is exact, not probabilistic.
  WalkthroughRequest cold;
  cold.queries = queries;
  cold.method = scout::PrefetchMethod::kExtrapolation;
  WalkthroughRequest cached = cold;
  cached.cache = CachePolicy::kWarm;

  auto cold_run = db_->Execute(cold);
  auto cached_run = db_->Execute(cached);
  ASSERT_TRUE(cold_run.ok());
  ASSERT_TRUE(cached_run.ok());
  ASSERT_EQ(cached_run->steps.size(), cold_run->steps.size());
  for (size_t i = 0; i < cold_run->steps.size(); ++i) {
    EXPECT_EQ(cached_run->steps[i].results, cold_run->steps[i].results)
        << "step " << i;
  }
  // The cached replay demands at most as many pages and reports coverage.
  EXPECT_LE(cached_run->pages_missed, cold_run->pages_missed);
  EXPECT_GT(cached_run->MeanCacheHitFraction(), 0.0);
  EXPECT_EQ(cold_run->MeanCacheHitFraction(), 0.0);
}

// Elements inserted after LoadCircuit carry bounds only, so the engine's
// segment resolver does not know them. SCOUT rebuilds each step's skeleton
// from the loaded elements and predicts exactly as without the inserts.
TEST(ScoutUpdateTest, InsertedElementsLeaveScoutPredictionsUnchanged) {
  const neuro::Circuit circuit = MakeCircuit(60, 2024);
  EngineOptions options;
  options.flat.elems_per_page = 64;
  QueryEngine plain(options);
  QueryEngine updated(options);
  ASSERT_TRUE(plain.LoadCircuit(circuit).ok());
  ASSERT_TRUE(updated.LoadCircuit(circuit).ok());

  auto path = neuro::FollowBranchPath(circuit, 1, 4.0f, 1);
  ASSERT_TRUE(path.ok());
  const std::vector<Aabb> queries = neuro::PathQueries(*path, 30.0f);
  ASSERT_GT(queries.size(), 100u);

  // One insert at the center of every path box, before the first step.
  std::vector<UpdateRequest> inserts;
  ElementId fresh = ElementId{1} << 48;
  for (const Aabb& box : queries) {
    ASSERT_TRUE(updated.resolver().Find(fresh).status().IsNotFound());
    inserts.push_back(UpdateRequest{UpdateKind::kInsert, fresh++,
                                    Aabb::Cube(box.Center(), 1)});
  }
  ASSERT_TRUE(updated.ApplyUpdates(inserts).ok());

  auto without = plain.OpenSession(scout::PrefetchMethod::kScout,
                                   CachePolicy::kDelta);
  auto with = updated.OpenSession(scout::PrefetchMethod::kScout,
                                  CachePolicy::kDelta);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  size_t predicting_steps = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto a = without->Step(queries[i]);
    auto b = with->Step(queries[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_GT(b->results, a->results) << "step " << i;
    EXPECT_EQ(b->stall_us, a->stall_us) << "step " << i;
    EXPECT_EQ(b->prefetched, a->prefetched) << "step " << i;
    EXPECT_EQ(b->candidates, a->candidates) << "step " << i;
    EXPECT_EQ(b->pages_missed, a->pages_missed) << "step " << i;
    if (a->candidates > 0) ++predicting_steps;
  }
  EXPECT_GT(predicting_steps, queries.size() / 2);
  EXPECT_GT(without->Summary().prefetch_issued, 0u);
}

// --------------------------------------------------------------------------
// Boundary validation
// --------------------------------------------------------------------------

TEST(EngineValidationTest, RejectsZeroPoolPages) {
  EngineOptions options;
  options.pool_pages = 0;
  QueryEngine db(options);
  EXPECT_TRUE(db.LoadCircuit(MakeCircuit(5, 1)).IsInvalidArgument());

  EngineOptions session_options;
  session_options.session.pool_pages = 0;
  QueryEngine db2(session_options);
  EXPECT_TRUE(db2.LoadCircuit(MakeCircuit(5, 1)).IsInvalidArgument());

  EngineOptions thread_options;
  thread_options.num_threads = 0;
  QueryEngine db3(thread_options);
  EXPECT_TRUE(db3.LoadCircuit(MakeCircuit(5, 1)).IsInvalidArgument());

  EngineOptions shard_options;
  shard_options.sharded.num_shards = 0;
  QueryEngine db4(shard_options);
  EXPECT_TRUE(db4.LoadCircuit(MakeCircuit(5, 1)).IsInvalidArgument());
}

TEST(EngineValidationTest, RejectsEmptyCircuitAndDoubleLoad) {
  QueryEngine db;
  EXPECT_TRUE(db.LoadCircuit(neuro::Circuit()).IsInvalidArgument());
  ASSERT_TRUE(db.LoadCircuit(MakeCircuit(5, 1)).ok());
  EXPECT_TRUE(db.LoadCircuit(MakeCircuit(5, 1)).IsAlreadyExists());
}

// A NaN or infinite coordinate in the birth set is rejected before any
// backend builds (the packers sort by box center), and the engine stays
// unloaded: a clean load then succeeds and answers exactly.
/// A grid backend that counts its base builds.
class BuildCountingBackend : public GridBackend {
 public:
  explicit BuildCountingBackend(std::atomic<int>* builds) : builds_(builds) {}
  const char* name() const override { return "BuildCounter"; }

 protected:
  Status BuildBase(const geom::ElementVec& elements) override {
    ++*builds_;
    return GridBackend::BuildBase(elements);
  }

 private:
  std::atomic<int>* builds_;
};

void ExpectSameElements(const geom::ElementVec& got,
                        const geom::ElementVec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << i;
    ASSERT_TRUE(got[i].bounds.min == want[i].bounds.min &&
                got[i].bounds.max == want[i].bounds.max)
        << i;
  }
}

TEST(EngineValidationTest, DuplicateIdsFailTheLoadBeforeAnyBackendBuilds) {
  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  const geom::ElementVec clean =
      neuro::UniformSegments(500, domain, 6.0f, 2.0f, 0.5f, 9).Elements();
  ASSERT_TRUE(std::is_sorted(clean.begin(), clean.end(),
                             [](const auto& l, const auto& r) {
                               return l.id < r.id;
                             }));
  geom::ElementVec shuffled = clean;
  std::reverse(shuffled.begin(), shuffled.end());
  std::swap(shuffled[10], shuffled[300]);

  std::vector<std::pair<std::string, geom::ElementVec>> inputs;
  inputs.emplace_back("id order, equal neighbours", clean);
  inputs.back().second[250].id = inputs.back().second[249].id;
  inputs.emplace_back("unordered, equal neighbours", shuffled);
  inputs.back().second[120].id = inputs.back().second[121].id;
  inputs.emplace_back("unordered, duplicate apart", shuffled);
  inputs.back().second[400].id = inputs.back().second[3].id;
  for (const auto& [label, elements] : inputs) {
    std::atomic<int> builds{0};
    QueryEngine db;
    ASSERT_TRUE(
        db.RegisterBackend(std::make_unique<BuildCountingBackend>(&builds))
            .ok());
    EXPECT_EQ(db.LoadElements(elements).code(), StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(builds.load(), 0) << label;
    EXPECT_FALSE(db.loaded()) << label;
  }
}

TEST(EngineValidationTest, AnIdOrderedLoadBecomesTheBaseAsItIs) {
  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  const geom::ElementVec clean =
      neuro::UniformSegments(500, domain, 6.0f, 2.0f, 0.5f, 9).Elements();

  // In id order: the live set adopts the caller's vector itself.
  geom::ElementVec ordered = clean;
  const geom::SpatialElement* buffer = ordered.data();
  std::atomic<int> builds{0};
  QueryEngine db;
  ASSERT_TRUE(
      db.RegisterBackend(std::make_unique<BuildCountingBackend>(&builds))
          .ok());
  ASSERT_TRUE(db.LoadElements(std::move(ordered)).ok());
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(db.live_set().base()->data(), buffer);
  ExpectSameElements(*db.live_set().base(), clean);

  // Out of order: the base is the sorted input.
  geom::ElementVec reversed(clean.rbegin(), clean.rend());
  QueryEngine sorted;
  ASSERT_TRUE(sorted.LoadElements(reversed).ok());
  ExpectSameElements(*sorted.live_set().base(), clean);

  // Every circuit load is in id order.
  const neuro::Circuit circuit = MakeCircuit(6, 31);
  QueryEngine from_circuit;
  ASSERT_TRUE(from_circuit.LoadCircuit(circuit).ok());
  ExpectSameElements(*from_circuit.live_set().base(),
                     circuit.FlattenSegments().Elements());
}

TEST(EngineValidationTest, RejectsNonFiniteElementBounds) {
  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  const geom::ElementVec clean =
      neuro::UniformSegments(500, domain, 6.0f, 2.0f, 0.5f, 9).Elements();
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    geom::ElementVec elements = clean;
    elements[123].bounds.max.y = bad;
    QueryEngine db;
    EXPECT_EQ(db.LoadElements(elements).code(), StatusCode::kInvalidArgument)
        << bad;
    EXPECT_FALSE(db.loaded());
    ASSERT_TRUE(db.LoadElements(clean).ok());

    RangeRequest request;
    request.box = db.domain();
    request.backend = BackendChoice::kAll;
    CollectingVisitor out;
    auto report = db.Execute(request, out);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->results_match);
    EXPECT_EQ(SortedIds(out).size(), clean.size());
  }
}

TEST(EngineValidationTest, RequestsBeforeLoadFail) {
  QueryEngine db;
  RangeRequest range;
  range.box = Aabb::Cube(Vec3(0, 0, 0), 5);
  EXPECT_TRUE(db.Execute(range).status().IsInvalidArgument());
  EXPECT_TRUE(db.ExecuteBatch(std::span<const RangeRequest>())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.ExecuteBatch(std::span<const QueryRequest>())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute(JoinRequest()).status().IsInvalidArgument());
  EXPECT_TRUE(db.Execute(WalkthroughRequest()).status().IsInvalidArgument());
  EXPECT_TRUE(
      db.OpenSession(scout::PrefetchMethod::kNone).status().IsInvalidArgument());
}

TEST_F(EngineFixture, RejectsInvalidBoxes) {
  RangeRequest bad;
  bad.box = Aabb(Vec3(10, 0, 0), Vec3(0, 10, 10));  // lo > hi on x
  EXPECT_TRUE(db_->Execute(bad).status().IsInvalidArgument());

  std::vector<RangeRequest> batch = {bad};
  EXPECT_TRUE(db_->ExecuteBatch(batch).status().IsInvalidArgument());

  auto session = db_->OpenSession(scout::PrefetchMethod::kNone);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->Step(bad.box).status().IsInvalidArgument());

  WalkthroughRequest walk;
  walk.queries = {bad.box};
  EXPECT_TRUE(db_->Execute(walk).status().IsInvalidArgument());
}

TEST_F(EngineFixture, HugeBoxesAreValidAndReturnEverything) {
  // Regression: the grid's cell arithmetic must clamp, not overflow, on
  // boxes vastly larger than the domain.
  RangeRequest request;
  request.box = Aabb::Cube(Vec3(0, 0, 0), 1e30f);
  request.backend = BackendChoice::kAll;
  auto report = db_->Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->results_match);
  EXPECT_EQ(report->results, db_->NumSegments());
}

TEST_F(EngineFixture, RejectsNegativeJoinEpsilon) {
  JoinRequest join;
  join.options.epsilon = -1.0f;
  EXPECT_TRUE(db_->Execute(join).status().IsInvalidArgument());

  join.options.epsilon = 3.0f;
  auto result = db_->Execute(join);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->pairs.size(), 0u);
}

TEST(EngineValidationTest, RegisterBackendRules) {
  QueryEngine db;
  EXPECT_TRUE(db.RegisterBackend(nullptr).IsInvalidArgument());
  // Duplicate name.
  EXPECT_TRUE(db.RegisterBackend(std::make_unique<FlatBackend>())
                  .IsAlreadyExists());
  ASSERT_TRUE(db.LoadCircuit(MakeCircuit(5, 1)).ok());
  // Too late once loaded.
  EXPECT_TRUE(db.RegisterBackend(std::make_unique<PagedRTreeBackend>())
                  .IsInvalidArgument());
}

TEST_F(EngineFixture, BackendStatsReportFootprint) {
  ASSERT_EQ(db_->NumBackends(), 4u);
  for (size_t i = 0; i < db_->NumBackends(); ++i) {
    BackendStats stats = db_->backend(i).Stats();
    EXPECT_GT(stats.index_pages, 0u) << db_->backend(i).name();
    EXPECT_GT(stats.metadata_bytes, 0u) << db_->backend(i).name();
  }
  // The R-tree keeps its nodes only in its pages: what it holds in memory
  // is its page table and its level profile.
  const rtree::PagedRTree& tree = db_->paged_rtree();
  const BackendStats stats = db_->rtree_backend()->Stats();
  ASSERT_GT(tree.Height(), 1);
  EXPECT_EQ(stats.index_pages, tree.NumPages());
  EXPECT_LE(stats.metadata_bytes,
            tree.NumPages() * sizeof(storage::PageId) +
                tree.LevelProfile().size() * sizeof(rtree::LevelStats));
}

// --------------------------------------------------------------------------
// Concurrent index builds
// --------------------------------------------------------------------------

// One page as a layout comparison sees it: its element ids in page order
// and its bounds.
struct PageImage {
  std::vector<ElementId> ids;
  Aabb bounds;

  bool operator==(const PageImage& o) const {
    return ids == o.ids && bounds == o.bounds;
  }
};

// Every page of every store of `backend` (one list per store, shards in
// shard order), in page-id order.
std::vector<std::vector<PageImage>> Pages(SpatialBackend* backend) {
  std::vector<std::vector<PageImage>> stores;
  for (storage::PageStore* store : backend->Stores()) {
    std::vector<PageImage>& pages = stores.emplace_back();
    for (storage::PageId id = 0; id < store->NumPages(); ++id) {
      auto page = store->Read(id);
      EXPECT_TRUE(page.ok()) << page.status().ToString();
      if (!page.ok()) return stores;
      PageImage& image = pages.emplace_back();
      for (const auto& e : (*page)->elements) image.ids.push_back(e.id);
      image.bounds = (*page)->Bounds();
    }
  }
  return stores;
}

// The engine builds its backends at once, one lane each. Every layout must
// equal that of the same backend built alone on this thread from the same
// input: after LoadCircuit, and after a Compact that rebuilt all four over
// the next base generation.
TEST(ConcurrentBuildTest, EveryBackendMatchesItsSerialBuild) {
  const neuro::Circuit circuit = MakeCircuit(30, 77);
  EngineOptions options;
  options.flat.elems_per_page = 64;
  options.rtree.max_entries = 16;
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadCircuit(circuit).ok());
  std::vector<SpatialBackend*> built = {db.flat_backend(), db.rtree_backend(),
                                        db.grid_backend(),
                                        db.sharded_backend()};
  std::vector<std::unique_ptr<SpatialBackend>> alone;
  alone.push_back(std::make_unique<FlatBackend>(options.flat));
  alone.push_back(std::make_unique<PagedRTreeBackend>(options.rtree));
  alone.push_back(std::make_unique<GridBackend>(options.grid));
  alone.push_back(std::make_unique<ShardedBackend>(options.sharded));
  ASSERT_EQ(db.NumBackends(), alone.size());

  const geom::ElementVec elements = circuit.FlattenSegments().Elements();
  for (size_t b = 0; b < alone.size(); ++b) {
    ASSERT_TRUE(alone[b]->Build(elements).ok());
    EXPECT_EQ(Pages(built[b]), Pages(alone[b].get()))
        << alone[b]->name() << " after LoadCircuit";
  }
  EXPECT_GT(db.sharded_backend()->Stores().size(), 1u);

  // Erase every 7th element, move every 11th and insert 500 new ones.
  std::vector<UpdateRequest> updates;
  for (size_t i = 0; i < elements.size(); i += 7) {
    updates.push_back({UpdateKind::kErase, elements[i].id, Aabb()});
  }
  for (size_t i = 3; i < elements.size(); i += 11) {
    if (i % 7 == 0) continue;
    Aabb moved = elements[i].bounds;
    moved.min = moved.min + Vec3(5, -3, 2);
    moved.max = moved.max + Vec3(5, -3, 2);
    updates.push_back({UpdateKind::kMove, elements[i].id, moved});
  }
  ElementId next_id = 0;
  for (const auto& e : elements) next_id = std::max(next_id, e.id + 1);
  for (int i = 0; i < 500; ++i) {
    const float f = static_cast<float>(i % 50);
    updates.push_back({UpdateKind::kInsert, next_id + i,
                       Aabb::Cube(Vec3(f * 7, f * 11, f * 13), 2.0f)});
  }
  ASSERT_TRUE(db.ApplyUpdates(updates).ok());
  ASSERT_TRUE(db.Compact().ok());

  const std::shared_ptr<const geom::ElementVec> next = db.live_set().base();
  for (size_t b = 0; b < alone.size(); ++b) {
    ASSERT_TRUE(alone[b]->Rebuild(*next).ok());
    EXPECT_EQ(Pages(built[b]), Pages(alone[b].get()))
        << alone[b]->name() << " after Compact";
  }
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
