// Mutable-circuit coverage: the base+delta write path (ApplyUpdates /
// Compact / epochs) through every backend, the engine result cache's
// epoch invalidation, delta-aware sessions, delta kNN seeding parity and
// the update-parity differential harness (tests/diff_harness.h's
// RunUpdateParity — CI-sized here, scaled up by the update_parity_nightly
// ctest registration through NEURODB_UPDATE_OPS).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <set>

#include "diff_harness.h"
#include "engine/query_engine.h"
#include "neuro/workload.h"

namespace neurodb {
namespace testing {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::KnnHit;
using geom::Vec3;

uint64_t UpdateSeed() {
  if (std::getenv("NEURODB_DIFF_SEED_FROM_DATE") != nullptr) {
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    return static_cast<uint64_t>(utc.tm_year + 1900) * 10000 +
           static_cast<uint64_t>(utc.tm_mon + 1) * 100 +
           static_cast<uint64_t>(utc.tm_mday);
  }
  return EnvOr("NEURODB_UPDATE_SEED", 20260730);
}

ElementVec MakeCloud(size_t n, uint64_t seed) {
  Aabb domain(Vec3(0, 0, 0), Vec3(300, 300, 300));
  return neuro::UniformSegments(n, domain, 6.0f, 2.0f, 0.5f, seed).Elements();
}

engine::EngineOptions SmallEngineOptions() {
  engine::EngineOptions options;
  options.flat.elems_per_page = 64;
  options.grid.elems_per_page = 64;
  options.sharded.inner.elems_per_page = 64;
  return options;
}

std::vector<ElementId> SortedIds(const geom::CollectingVisitor& v) {
  std::vector<ElementId> ids = v.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::unique_ptr<engine::QueryEngine> MakeEngine(const ElementVec& elements) {
  auto db = std::make_unique<engine::QueryEngine>(SmallEngineOptions());
  EXPECT_TRUE(db->LoadElements(elements).ok());
  return db;
}

engine::UpdateRequest Insert(ElementId id, const Aabb& bounds) {
  return engine::UpdateRequest{engine::UpdateKind::kInsert, id, bounds};
}
engine::UpdateRequest Erase(ElementId id) {
  return engine::UpdateRequest{engine::UpdateKind::kErase, id, Aabb()};
}
engine::UpdateRequest Move(ElementId id, const Aabb& bounds) {
  return engine::UpdateRequest{engine::UpdateKind::kMove, id, bounds};
}

Result<engine::UpdateReport> ApplyReport(
    engine::QueryEngine* db,
    std::initializer_list<engine::UpdateRequest> updates) {
  std::vector<engine::UpdateRequest> batch(updates);
  return db->ApplyUpdates(std::span<const engine::UpdateRequest>(batch));
}

Status Apply(engine::QueryEngine* db,
             std::initializer_list<engine::UpdateRequest> updates) {
  return ApplyReport(db, updates).status();
}

// --------------------------------------------------------------------------
// Targeted insert/erase/move parity across every backend
// --------------------------------------------------------------------------

TEST(UpdateTest, InsertEraseMoveAreVisibleInEveryBackend) {
  ElementVec elements = MakeCloud(600, 3);
  auto db = MakeEngine(elements);

  // Oracle mirror of the three mutations.
  ElementVec live = elements;
  ElementId fresh = 1'000'000;
  Aabb inserted = Aabb::Cube(Vec3(150, 150, 150), 4.0f);
  ASSERT_TRUE(Apply(db.get(), {Insert(fresh, inserted)}).ok());
  live.emplace_back(fresh, inserted);

  ElementId erased = live[17].id;
  ASSERT_TRUE(Apply(db.get(), {Erase(erased)}).ok());
  live.erase(live.begin() + 17);

  ElementId moved = live[3].id;
  Aabb moved_to = Aabb::Cube(Vec3(40, 260, 40), 4.0f);
  ASSERT_TRUE(Apply(db.get(), {Move(moved, moved_to)}).ok());
  live[3].bounds = moved_to;

  EXPECT_EQ(db->NumSegments(), live.size());
  EXPECT_GT(db->DeltaSize(), 0u);

  const engine::BackendChoice kChoices[] = {
      engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
      engine::BackendChoice::kGrid, engine::BackendChoice::kSharded,
      engine::BackendChoice::kAll};
  auto boxes = neuro::UniformQueries(db->domain(), 80.0f, 6, 11);
  boxes.push_back(inserted.Expanded(2.0f));
  boxes.push_back(moved_to.Expanded(2.0f));
  for (const Aabb& box : boxes) {
    std::vector<ElementId> truth = BruteForceRangeIds(live, box);
    for (engine::BackendChoice choice : kChoices) {
      engine::RangeRequest request;
      request.box = box;
      request.backend = choice;
      request.cache = engine::CachePolicy::kWarm;
      geom::CollectingVisitor out;
      auto report = db->Execute(request, out);
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report->results_match);
      EXPECT_EQ(SortedIds(out), truth) << "box " << box;
      EXPECT_EQ(report->epoch, db->epoch());
    }

    engine::KnnRequest knn;
    knn.point = box.Center();
    knn.k = 12;
    knn.backend = engine::BackendChoice::kAll;
    knn.cache = engine::CachePolicy::kWarm;
    auto report = db->Execute(knn);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->results_match);
    EXPECT_EQ(report->hits, geom::BruteForceKnn(live, knn.point, knn.k));
  }
}

// --------------------------------------------------------------------------
// Validation and batch atomicity
// --------------------------------------------------------------------------

TEST(UpdateTest, ValidatesBatchesAtomically) {
  ElementVec elements = MakeCloud(200, 5);
  auto db = MakeEngine(elements);

  EXPECT_EQ(Apply(db.get(), {}).code(), StatusCode::kInvalidArgument);
  // Insert of a live id.
  EXPECT_EQ(Apply(db.get(), {Insert(elements[0].id, Aabb::Cube(Vec3(), 1))})
                .code(),
            StatusCode::kAlreadyExists);
  // Erase / move of unknown ids.
  EXPECT_EQ(Apply(db.get(), {Erase(999'999)}).code(), StatusCode::kNotFound);
  EXPECT_EQ(Apply(db.get(), {Move(999'999, Aabb::Cube(Vec3(), 1))}).code(),
            StatusCode::kNotFound);
  // Invalid bounds.
  EXPECT_EQ(Apply(db.get(), {Insert(500'000, Aabb())}).code(),
            StatusCode::kInvalidArgument);

  // A batch with one bad op applies nothing — and intra-batch dependencies
  // (insert then move of the same id) validate correctly.
  EXPECT_EQ(db->epoch(), 0u);
  EXPECT_EQ(Apply(db.get(), {Insert(500'000, Aabb::Cube(Vec3(1, 1, 1), 2)),
                             Erase(999'999)})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db->DeltaSize(), 0u);
  EXPECT_EQ(db->epoch(), 0u);
  ASSERT_TRUE(Apply(db.get(), {Insert(500'000, Aabb::Cube(Vec3(1, 1, 1), 2)),
                               Move(500'000, Aabb::Cube(Vec3(5, 5, 5), 2)),
                               Erase(500'000)})
                  .ok());
  EXPECT_EQ(db->epoch(), 1u);
  EXPECT_EQ(db->NumSegments(), elements.size());
}

// --------------------------------------------------------------------------
// Epochs, result-cache invalidation and the invalidation counter
// --------------------------------------------------------------------------

TEST(UpdateTest, EpochTagsAndCacheInvalidation) {
  ElementVec elements = MakeCloud(600, 7);
  auto db = MakeEngine(elements);
  ASSERT_NE(db->result_cache(), nullptr);

  // Prime the result cache with a kDelta query.
  Aabb cached_box = Aabb::Cube(Vec3(150, 150, 150), 60.0f);
  engine::RangeRequest request;
  request.box = cached_box;
  request.backend = engine::BackendChoice::kFlat;
  request.cache = engine::CachePolicy::kDelta;
  ASSERT_TRUE(db->Execute(request).ok());
  ASSERT_EQ(db->result_cache()->size(), 1u);
  EXPECT_EQ(db->result_cache()->entry(0).epoch, 0u);

  // A far-away update keeps the entry (dirty region disjoint) but bumps
  // the epoch stamp for future inserts.
  auto far =
      ApplyReport(db.get(), {Insert(700'000, Aabb::Cube(Vec3(5, 5, 5), 2.0f))});
  ASSERT_TRUE(far.ok());
  EXPECT_EQ(far->epoch, 1u);
  EXPECT_EQ(far->invalidated_boxes, 0u);
  EXPECT_EQ(db->result_cache()->size(), 1u);

  // An update inside the cached box drops exactly that entry and counts it
  // as invalidation churn, not an eviction.
  uint64_t evictions0 = db->result_cache()->stats().evictions;
  auto near = ApplyReport(
      db.get(), {Insert(700'001, Aabb::Cube(Vec3(150, 150, 150), 2.0f))});
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->epoch, 2u);
  EXPECT_EQ(near->invalidated_boxes, 1u);
  EXPECT_EQ(db->result_cache()->size(), 0u);
  EXPECT_EQ(db->result_cache()->stats().invalidated_boxes, 1u);
  EXPECT_EQ(db->result_cache()->stats().evictions, evictions0);

  // The re-query answers at the new epoch and sees the new element.
  geom::CollectingVisitor out;
  auto report = db->Execute(request, out);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->epoch, 2u);
  std::vector<ElementId> ids = SortedIds(out);
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 700'001u));
  EXPECT_EQ(db->result_cache()->entry(0).epoch, 2u);
}

// --------------------------------------------------------------------------
// Compact: parity preserved, delta folded, layout epoch bumped
// --------------------------------------------------------------------------

TEST(UpdateTest, CompactFoldsDeltaAndPreservesParity) {
  ElementVec elements = MakeCloud(800, 9);
  auto db = MakeEngine(elements);

  // A burst of mutations.
  std::vector<engine::UpdateRequest> batch;
  for (size_t i = 0; i < 40; ++i) {
    batch.push_back(Insert(800'000 + i,
                           Aabb::Cube(Vec3(10.0f + 7.0f * i, 150, 150), 3.0f)));
  }
  for (size_t i = 0; i < 30; ++i) batch.push_back(Erase(elements[i * 7].id));
  // Disjoint from the erased indices (multiples of 7 up to 203).
  for (size_t i = 0; i < 20; ++i) {
    batch.push_back(Move(elements[300 + i * 3].id,
                         Aabb::Cube(Vec3(150, 10.0f + 9.0f * i, 150), 3.0f)));
  }
  ASSERT_TRUE(db->ApplyUpdates(std::span<const engine::UpdateRequest>(batch))
                  .ok());
  ASSERT_GT(db->DeltaSize(), 0u);

  auto boxes = neuro::UniformQueries(db->domain(), 90.0f, 8, 21);
  std::vector<std::vector<ElementId>> before;
  for (const Aabb& box : boxes) {
    engine::RangeRequest request;
    request.box = box;
    request.backend = engine::BackendChoice::kAll;
    request.cache = engine::CachePolicy::kWarm;
    geom::CollectingVisitor out;
    auto report = db->Execute(request, out);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->results_match);
    before.push_back(SortedIds(out));
  }

  uint64_t flat_store_epoch = db->flat_backend()->store()->epoch();
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(db->DeltaSize(), 0u);
  EXPECT_GT(db->flat_backend()->store()->epoch(), flat_store_epoch);
  EXPECT_EQ(db->epoch(), 2u);  // one update batch + one compaction

  for (size_t i = 0; i < boxes.size(); ++i) {
    engine::RangeRequest request;
    request.box = boxes[i];
    request.backend = engine::BackendChoice::kAll;
    request.cache = engine::CachePolicy::kWarm;
    geom::CollectingVisitor out;
    auto report = db->Execute(request, out);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->results_match);
    EXPECT_EQ(SortedIds(out), before[i]) << "box " << boxes[i];
  }

  // Compact is idempotent and cheap on an empty delta.
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(db->DeltaSize(), 0u);
}

// --------------------------------------------------------------------------
// Sharded routing: spill inserts, bounds extension, compaction re-homing
// --------------------------------------------------------------------------

TEST(UpdateTest, ShardedSpillAndRehoming) {
  ElementVec elements = MakeCloud(500, 13);
  engine::ShardedOptions options;
  options.num_shards = 4;
  options.inner.elems_per_page = 64;
  engine::ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());

  // Far outside every shard bound: must spill, and still be queryable.
  Aabb outside = Aabb::Cube(Vec3(900, 900, 900), 4.0f);
  ASSERT_TRUE(backend.Insert(123'456, outside).ok());
  EXPECT_EQ(backend.SpillPopulation(), 1u);

  ElementVec live = elements;
  live.emplace_back(123'456, outside);

  storage::PoolSet pools = backend.MakePoolSet(4096);
  geom::CollectingVisitor out;
  ASSERT_TRUE(
      backend.RangeQuery(outside.Expanded(5.0f), &pools, out).ok());
  EXPECT_EQ(SortedIds(out), BruteForceRangeIds(live, outside.Expanded(5.0f)));

  std::vector<KnnHit> hits;
  ASSERT_TRUE(backend.KnnQuery(Vec3(890, 890, 890), 3, &pools, &hits).ok());
  EXPECT_EQ(hits, geom::BruteForceKnn(live, Vec3(890, 890, 890), 3));

  // Compaction re-homes the spill element into the nearest shard; answers
  // are unchanged, the spill and all deltas drain.
  ASSERT_TRUE(backend.Compact().ok());
  EXPECT_EQ(backend.SpillPopulation(), 0u);
  EXPECT_EQ(backend.DeltaSize(), 0u);
  storage::PoolSet fresh = backend.MakePoolSet(4096);
  geom::CollectingVisitor again;
  ASSERT_TRUE(
      backend.RangeQuery(outside.Expanded(5.0f), &fresh, again).ok());
  EXPECT_EQ(SortedIds(again),
            BruteForceRangeIds(live, outside.Expanded(5.0f)));

  // And the spilled id is now exactly erasable (it lives in a shard).
  ASSERT_TRUE(backend.Erase(123'456).ok());
  geom::CollectingVisitor gone;
  ASSERT_TRUE(
      backend.RangeQuery(outside.Expanded(5.0f), &fresh, gone).ok());
  EXPECT_EQ(SortedIds(gone),
            BruteForceRangeIds(elements, outside.Expanded(5.0f)));
}

// --------------------------------------------------------------------------
// Delta-aware sessions: updates visible, caches invalidated, epochs stamped
// --------------------------------------------------------------------------

TEST(UpdateTest, SessionsSeeUpdatesAndInvalidateTheirCaches) {
  ElementVec elements = MakeCloud(700, 17);
  auto db = MakeEngine(elements);

  auto cached = db->OpenSession(scout::PrefetchMethod::kNone,
                                engine::CachePolicy::kDelta);
  ASSERT_TRUE(cached.ok());
  ASSERT_NE(cached->result_cache(), nullptr);

  Aabb box = Aabb::Cube(Vec3(150, 150, 150), 50.0f);
  geom::CollectingVisitor first;
  auto step1 = cached->Step(box, first);
  ASSERT_TRUE(step1.ok());
  EXPECT_EQ(step1->epoch, 0u);

  // Mutate inside the cached box.
  ASSERT_TRUE(
      Apply(db.get(), {Insert(900'000, Aabb::Cube(Vec3(150, 150, 150), 2.0f))})
          .ok());

  ElementVec live = elements;
  live.emplace_back(900'000, Aabb::Cube(Vec3(150, 150, 150), 2.0f));

  // The next step catches up: the stale entry is invalidated, the answer
  // includes the insert and is stamped with the new epoch — byte-identical
  // to a cold session.
  geom::CollectingVisitor second;
  auto step2 = cached->Step(box, second);
  ASSERT_TRUE(step2.ok());
  EXPECT_EQ(step2->epoch, 1u);
  EXPECT_EQ(SortedIds(second), BruteForceRangeIds(live, box));
  EXPECT_GE(cached->Summary().cache_invalidated_boxes, 1u);

  auto cold = db->OpenSession(scout::PrefetchMethod::kNone,
                              engine::CachePolicy::kCold);
  ASSERT_TRUE(cold.ok());
  geom::CollectingVisitor cold_out;
  ASSERT_TRUE(cold->Step(box, cold_out).ok());
  EXPECT_EQ(SortedIds(cold_out), SortedIds(second));

  // kNN steps merge the delta too.
  std::vector<KnnHit> hits;
  ASSERT_TRUE(cold->StepKnn(Vec3(150, 150, 150), 8, &hits).ok());
  EXPECT_EQ(hits, geom::BruteForceKnn(live, Vec3(150, 150, 150), 8));
}

TEST(UpdateTest, KnnAsksAgainWhenTheNearestBaseElementsAreDead) {
  ElementVec elements = MakeCloud(900, 29);
  auto db = MakeEngine(elements);
  const Vec3 point(150, 150, 150);
  constexpr size_t kK = 8;

  // Kill every one of the k nearest base elements (and as many again):
  // even-ranked ones are erased, odd-ranked ones move to a far corner. A
  // first ask for k base neighbours then returns only dead ids.
  ElementVec live = elements;
  std::vector<engine::UpdateRequest> batch;
  for (const KnnHit& hit : geom::BruteForceKnn(elements, point, 2 * kK)) {
    auto it = std::find_if(live.begin(), live.end(),
                           [&](const geom::SpatialElement& e) {
                             return e.id == hit.id;
                           });
    if (batch.size() % 2 == 0) {
      batch.push_back(Erase(hit.id));
      live.erase(it);
    } else {
      const float c = 280.0f + static_cast<float>(batch.size());
      it->bounds = Aabb::Cube(Vec3(c, c, c), 2.0f);
      batch.push_back(Move(hit.id, it->bounds));
    }
  }
  ASSERT_TRUE(db->ApplyUpdates(std::span<const engine::UpdateRequest>(batch))
                  .ok());
  const std::vector<KnnHit> truth = geom::BruteForceKnn(live, point, kK);

  for (engine::BackendChoice choice :
       {engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
        engine::BackendChoice::kGrid, engine::BackendChoice::kSharded,
        engine::BackendChoice::kAll}) {
    engine::KnnRequest knn;
    knn.point = point;
    knn.k = kK;
    knn.backend = choice;
    knn.cache = engine::CachePolicy::kCold;
    auto report = db->Execute(knn);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->results_match);
    EXPECT_EQ(report->hits, truth) << "backend " << static_cast<int>(choice);
  }

  // The session path.
  auto session = engine::Session::Open(
      &db->flat_index(), db->flat_backend()->store(), nullptr,
      scout::PrefetchMethod::kNone, db->options().session, db->flat_backend());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Step(Aabb::Cube(point, 30.0f)).ok());
  std::vector<KnnHit> hits;
  ASSERT_TRUE(session->StepKnn(point, kK, &hits).ok());
  EXPECT_EQ(hits, truth);
}

// --------------------------------------------------------------------------
// Session kNN along an exploration walk
// --------------------------------------------------------------------------

TEST(UpdateTest, StepKnnWalkMatchesBruteForce) {
  ElementVec elements = MakeCloud(1500, 19);
  auto db = MakeEngine(elements);
  auto session = engine::Session::Open(&db->flat_index(),
                                       db->flat_backend()->store(), nullptr,
                                       scout::PrefetchMethod::kNone,
                                       db->options().session);
  ASSERT_TRUE(session.ok());

  // A drifting exploration: range steps warm the session pool between kNN
  // steps, and every kNN step must agree hit-for-hit with brute force.
  neuro::NavigationPath walk =
      neuro::RandomWalkPath(db->domain(), 8, 12.0f, 23);
  for (const Vec3& waypoint : walk.waypoints) {
    ASSERT_TRUE(session->Step(Aabb::Cube(waypoint, 40.0f)).ok());
    for (size_t k : {1u, 8u, 24u}) {
      std::vector<KnnHit> hits;
      ASSERT_TRUE(session->StepKnn(waypoint, k, &hits).ok());
      EXPECT_EQ(hits, geom::BruteForceKnn(elements, waypoint, k))
          << "k=" << k;
    }
  }
}

// --------------------------------------------------------------------------
// Shrink reducer mechanics (ROADMAP PR-2 follow-up)
// --------------------------------------------------------------------------

TEST(UpdateTest, MinimizeElementsFindsMinimalReproducingSubset) {
  ElementVec elements;
  for (ElementId id = 0; id < 100; ++id) {
    elements.emplace_back(id, Aabb::Cube(Vec3(static_cast<float>(id), 0, 0),
                                         1.0f));
  }
  // "Diverges" iff both culprit elements survive — the classic two-element
  // constellation a sub-seed repro alone cannot isolate.
  auto predicate = [](const ElementVec& subset) {
    bool has7 = false, has42 = false;
    for (const auto& e : subset) {
      if (e.id == 7) has7 = true;
      if (e.id == 42) has42 = true;
    }
    return has7 && has42;
  };
  ElementVec minimized = MinimizeElements(elements, predicate, 512);
  ASSERT_EQ(minimized.size(), 2u);
  EXPECT_EQ(minimized[0].id, 7u);
  EXPECT_EQ(minimized[1].id, 42u);
}

// --------------------------------------------------------------------------
// Workload generation: kUpdate queries are seeded and regenerable
// --------------------------------------------------------------------------

TEST(UpdateTest, WorkloadGeneratesRegenerableUpdates) {
  ElementVec elements = MakeCloud(100, 29);
  Aabb domain(Vec3(0, 0, 0), Vec3(300, 300, 300));
  neuro::MixedWorkloadOptions options;
  options.update_fraction = 1.0;
  options.knn_fraction = 0.0;

  auto workload = neuro::MixedWorkload(domain, elements, options, 64, 77);
  std::set<int> ops;
  for (const auto& query : workload) {
    ASSERT_EQ(query.kind, neuro::QueryKind::kUpdate);
    ops.insert(static_cast<int>(query.update_op));
    neuro::WorkloadQuery again =
        neuro::MixedWorkloadQuery(domain, elements, options, query.sub_seed);
    EXPECT_EQ(static_cast<int>(again.kind), static_cast<int>(query.kind));
    EXPECT_EQ(static_cast<int>(again.update_op),
              static_cast<int>(query.update_op));
    EXPECT_EQ(again.update_rank, query.update_rank);
    EXPECT_EQ(again.box, query.box);
  }
  EXPECT_EQ(ops.size(), 3u);  // all three mutation flavors appear
}

// --------------------------------------------------------------------------
// The acceptance run: interleaved update/query stream vs the mutable
// oracle, all backends + the delta cache, with periodic compaction.
// CI: 1000 ops; nightly: NEURODB_UPDATE_OPS=10000 (date-rotated seed).
// --------------------------------------------------------------------------

TEST(UpdateTest, SeededUpdateWorkloadHasNoDivergence) {
  ElementVec elements = MakeCloud(1200, 31);
  auto db = MakeEngine(elements);

  UpdateParityOptions options;
  options.workload.update_fraction = 0.35;
  options.workload.knn_fraction = 0.15;
  options.workload.walkthrough_fraction = 0.01;
  options.workload.join_fraction = 0.0;
  options.engine = SmallEngineOptions();
  options.compact_every = 200;
  options.shrink_on_divergence = true;

  size_t ops = EnvOr("NEURODB_UPDATE_OPS", 1000);
  uint64_t seed = UpdateSeed();
  DiffOutcome outcome =
      RunUpdateParity(db.get(), elements, options, ops, seed);
  EXPECT_FALSE(outcome.diverged)
      << outcome.Summary() << " (seed " << seed << ")";
  EXPECT_GT(outcome.updates, 0u);
  EXPECT_GT(outcome.ranges, 0u);
  // The stream actually exercised the epoch machinery.
  EXPECT_GT(db->epoch(), 0u);
}

// A read-only registered backend must reject the whole batch up front —
// a half-applied batch (built-ins mutated, custom backend not) would
// break kAll parity permanently.
class ReadOnlyBackend : public engine::GridBackend {
 public:
  const char* name() const override { return "ReadOnly"; }
  bool SupportsUpdates() const override { return false; }
};

TEST(UpdateTest, ReadOnlyBackendRejectsUpdatesAtomically) {
  ElementVec elements = MakeCloud(150, 43);
  auto db = std::make_unique<engine::QueryEngine>(SmallEngineOptions());
  ASSERT_TRUE(db->RegisterBackend(std::make_unique<ReadOnlyBackend>()).ok());
  ASSERT_TRUE(db->LoadElements(elements).ok());

  EXPECT_EQ(Apply(db.get(), {Insert(500'000, Aabb::Cube(Vec3(1, 1, 1), 2))})
                .code(),
            StatusCode::kUnimplemented);
  // Nothing applied anywhere: no delta records, no epoch bump, and the
  // five-way kAll panel still agrees.
  EXPECT_EQ(db->DeltaSize(), 0u);
  EXPECT_EQ(db->epoch(), 0u);
  engine::RangeRequest request;
  request.box = Aabb::Cube(Vec3(150, 150, 150), 80.0f);
  request.backend = engine::BackendChoice::kAll;
  auto report = db->Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->results_match);
}

// Compaction rebuilds the page layout under any open session's private
// pool — the session adopts the new layout lazily (its pool drops stale
// pages through the store-epoch check) and keeps answering, byte-identical
// to a session opened fresh after the compaction.
TEST(UpdateTest, SessionsSurviveCompact) {
  ElementVec elements = MakeCloud(300, 47);
  auto db = MakeEngine(elements);

  auto session = db->OpenSession(scout::PrefetchMethod::kNone,
                                 engine::CachePolicy::kWarm);
  ASSERT_TRUE(session.ok());
  Aabb box = Aabb::Cube(Vec3(150, 150, 150), 40.0f);
  ASSERT_TRUE(session->Step(box).ok());

  ASSERT_TRUE(Apply(db.get(), {Erase(elements[0].id)}).ok());
  ASSERT_TRUE(db->Compact().ok());

  // The pre-compaction session keeps stepping against the rebuilt layout.
  geom::CollectingVisitor survived_out;
  auto survived = session->Step(box, survived_out);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();

  // ... and answers byte-identically to a session opened fresh after the
  // compaction.
  auto fresh = db->OpenSession(scout::PrefetchMethod::kNone,
                               engine::CachePolicy::kWarm);
  ASSERT_TRUE(fresh.ok());
  geom::CollectingVisitor fresh_out;
  ASSERT_TRUE(fresh->Step(box, fresh_out).ok());

  ElementVec survived_results = survived_out.TakeElements();
  ElementVec fresh_results = fresh_out.TakeElements();
  ASSERT_EQ(survived_results.size(), fresh_results.size());
  for (size_t i = 0; i < fresh_results.size(); ++i) {
    EXPECT_EQ(survived_results[i].id, fresh_results[i].id);
  }
  // The compaction folded the erase into the base; neither session may
  // still see the erased element.
  for (const auto& e : fresh_results) EXPECT_NE(e.id, elements[0].id);
}

// Compacting a base down to nothing leaves no crawl layout at all — the
// one post-compaction state a session cannot adopt. Steps report it.
TEST(UpdateTest, SessionsReportCompactToEmpty) {
  ElementVec elements = MakeCloud(40, 51);
  auto db = MakeEngine(elements);

  auto session = db->OpenSession(scout::PrefetchMethod::kNone,
                                 engine::CachePolicy::kWarm);
  ASSERT_TRUE(session.ok());

  std::vector<engine::UpdateRequest> erase_all;
  for (const auto& e : elements) erase_all.push_back(Erase(e.id));
  ASSERT_TRUE(db->ApplyUpdates(erase_all).ok());
  ASSERT_TRUE(db->Compact().ok());

  auto gone = session->Step(Aabb::Cube(Vec3(150, 150, 150), 40.0f));
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kInvalidArgument);
}

// An injected mutation bug (a backend that ignores erases) is caught by
// the update-parity harness with a usable repro handle.
class EraseDroppingBackend : public engine::GridBackend {
 public:
  const char* name() const override { return "EraseDropper"; }
  // Updates flow through the batched publish path — drop the erases there.
  Status ApplyBatch(const std::vector<engine::UpdateRequest>& updates,
                    storage::Epoch epoch) override {
    std::vector<engine::UpdateRequest> kept;
    for (const auto& u : updates) {
      if (u.kind != engine::UpdateKind::kErase) kept.push_back(u);
    }
    return engine::GridBackend::ApplyBatch(kept, epoch);
  }
};

TEST(UpdateTest, CatchesBackendThatDropsErases) {
  ElementVec elements = MakeCloud(400, 37);
  auto db = std::make_unique<engine::QueryEngine>(SmallEngineOptions());
  ASSERT_TRUE(
      db->RegisterBackend(std::make_unique<EraseDroppingBackend>()).ok());
  ASSERT_TRUE(db->LoadElements(elements).ok());

  UpdateParityOptions options;
  options.workload.update_fraction = 0.6;
  options.workload.update_insert_weight = 0.0;
  options.workload.update_erase_weight = 1.0;  // erases only
  options.workload.knn_fraction = 0.0;
  options.workload.data_centered_fraction = 1.0;
  options.engine = SmallEngineOptions();

  DiffOutcome outcome = RunUpdateParity(db.get(), elements, options, 80, 41);
  EXPECT_TRUE(outcome.diverged) << outcome.Summary();
}

}  // namespace
}  // namespace testing
}  // namespace neurodb
