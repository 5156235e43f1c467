// Tests of the result-cache subsystem (src/cache/) and the PoolManager
// (src/storage/pool_manager.h): box subtraction geometry, cache eviction
// and lookup policy, delta-plan exactness against brute force, and the
// named persistent pool sets behind the engine's warm path.

#include "cache/delta_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/result_cache.h"
#include "common/rng.h"
#include "storage/pool_manager.h"

namespace neurodb {
namespace cache {
namespace {

using geom::Aabb;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;

Aabb RandomBox(Pcg32* rng, float extent) {
  Vec3 lo(static_cast<float>(rng->Uniform(0, extent)),
          static_cast<float>(rng->Uniform(0, extent)),
          static_cast<float>(rng->Uniform(0, extent)));
  Vec3 size(static_cast<float>(rng->Uniform(1, extent / 2)),
            static_cast<float>(rng->Uniform(1, extent / 2)),
            static_cast<float>(rng->Uniform(1, extent / 2)));
  return Aabb(lo, lo + size);
}

// --------------------------------------------------------------------------
// SubtractBox
// --------------------------------------------------------------------------

TEST(SubtractBoxTest, EdgeCases) {
  Aabb outer({0, 0, 0}, {10, 10, 10});
  // Disjoint clip: the whole outer box is residual.
  auto disjoint = DeltaPlanner::SubtractBox(outer, Aabb({20, 20, 20},
                                                        {30, 30, 30}));
  ASSERT_EQ(disjoint.size(), 1u);
  EXPECT_EQ(disjoint[0], outer);

  // Clip covers outer: nothing is left.
  EXPECT_TRUE(
      DeltaPlanner::SubtractBox(outer, Aabb({-1, -1, -1}, {11, 11, 11}))
          .empty());
  EXPECT_TRUE(DeltaPlanner::SubtractBox(outer, outer).empty());

  // A centered clip produces the full six residual slabs.
  auto six = DeltaPlanner::SubtractBox(outer, Aabb({4, 4, 4}, {6, 6, 6}));
  EXPECT_EQ(six.size(), 6u);
}

TEST(SubtractBoxTest, RandomizedCoverageAndVolumeConservation) {
  Pcg32 rng(7);
  for (int round = 0; round < 200; ++round) {
    Aabb outer = RandomBox(&rng, 50.0f);
    Aabb clip = RandomBox(&rng, 50.0f);
    auto residuals = DeltaPlanner::SubtractBox(outer, clip);
    ASSERT_LE(residuals.size(), 6u);

    // Volume conservation: covered fragment + residuals == outer.
    double covered = Aabb::Intersection(outer, clip).Volume();
    double residual_volume = 0.0;
    for (const Aabb& r : residuals) {
      ASSERT_TRUE(r.IsValid());
      EXPECT_TRUE(outer.Contains(r));
      residual_volume += r.Volume();
    }
    EXPECT_NEAR(covered + residual_volume, outer.Volume(),
                1e-5 * std::max(1.0, outer.Volume()));

    // Point coverage: every sampled point of outer is in the clip or in
    // some residual.
    for (int sample = 0; sample < 50; ++sample) {
      Vec3 p(static_cast<float>(rng.Uniform(outer.min.x, outer.max.x)),
             static_cast<float>(rng.Uniform(outer.min.y, outer.max.y)),
             static_cast<float>(rng.Uniform(outer.min.z, outer.max.z)));
      bool covered_point = clip.Contains(p);
      for (const Aabb& r : residuals) covered_point |= r.Contains(p);
      ASSERT_TRUE(covered_point) << "round " << round;
    }
  }
}

// --------------------------------------------------------------------------
// ResultCache
// --------------------------------------------------------------------------

ElementVec OneElement(uint64_t id) {
  ElementVec v;
  v.emplace_back(id, Aabb({0, 0, 0}, {1, 1, 1}));
  return v;
}

TEST(ResultCacheTest, EvictsOldestBeyondCapacity) {
  ResultCache cache(2);
  cache.Insert(Aabb({0, 0, 0}, {1, 1, 1}), OneElement(1));
  cache.Insert(Aabb({10, 0, 0}, {11, 1, 1}), OneElement(2));
  cache.Insert(Aabb({20, 0, 0}, {21, 1, 1}), OneElement(3));
  ASSERT_EQ(cache.size(), 2u);
  // The first entry was evicted; the two newest survive.
  EXPECT_EQ(cache.entry(0).results[0].id, 2u);
  EXPECT_EQ(cache.entry(1).results[0].id, 3u);
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, CoveredInsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2);
  Aabb big({0, 0, 0}, {10, 10, 10});
  cache.Insert(big, OneElement(1));
  cache.Insert(Aabb({100, 0, 0}, {101, 1, 1}), OneElement(2));
  // A box inside `big` must not evict anything — the covering entry is
  // refreshed to most-recent instead.
  cache.Insert(Aabb({2, 2, 2}, {3, 3, 3}), OneElement(9));
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entry(1).box, big);
  EXPECT_EQ(cache.entry(1).results[0].id, 1u);
}

TEST(ResultCacheTest, SubsumedEntriesAreDropped) {
  ResultCache cache(4);
  cache.Insert(Aabb({1, 1, 1}, {2, 2, 2}), OneElement(1));
  cache.Insert(Aabb({3, 3, 3}, {4, 4, 4}), OneElement(2));
  cache.Insert(Aabb({0, 0, 0}, {10, 10, 10}), OneElement(3));
  // Both small boxes are inside the new one and can never win BestOverlap.
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.entry(0).results[0].id, 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ResultCacheTest, BestOverlapPicksLargestIntersection) {
  ResultCache cache(4);
  cache.Insert(Aabb({0, 0, 0}, {4, 10, 10}), {});     // overlap 4*10*10
  cache.Insert(Aabb({0, 0, 0}, {10, 10, 10}), {});    // subsumes the first
  ASSERT_EQ(cache.size(), 1u);
  cache.Insert(Aabb({8, 0, 0}, {12, 10, 10}), {});    // overlap 2*10*10
  auto best = cache.BestOverlap(Aabb({0, 0, 0}, {10, 10, 10}));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(cache.entry(*best).box, Aabb({0, 0, 0}, {10, 10, 10}));

  EXPECT_FALSE(cache.BestOverlap(Aabb({50, 50, 50}, {60, 60, 60}))
                   .has_value());
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  ResultCache disabled(0);
  disabled.Insert(Aabb({0, 0, 0}, {1, 1, 1}), {});
  EXPECT_EQ(disabled.size(), 0u);
  EXPECT_FALSE(disabled.enabled());

  // Degenerate (zero-volume) boxes can never serve a hit and must not
  // evict useful entries.
  ResultCache planar(2);
  planar.Insert(Aabb({0, 0, 0}, {10, 10, 0}), {});
  EXPECT_EQ(planar.size(), 0u);
}

TEST(DeltaPlannerTest, SliverOverlapDegradesToFullMiss) {
  ResultCache cache(2);
  cache.Insert(Aabb({0, 0, 0}, {10, 10, 10}), {});
  // A corner clip of ~1e-6 of the query volume: paying six residual
  // queries for that coverage would cost more than one full query, so
  // the plan degrades to a miss with the whole box as the one residual.
  DeltaPlan sliver = DeltaPlanner::Plan(
      cache, Aabb({9.9f, 9.9f, 9.9f}, {19.9f, 19.9f, 19.9f}));
  EXPECT_FALSE(sliver.source.has_value());
  ASSERT_EQ(sliver.residuals.size(), 1u);
  EXPECT_EQ(sliver.covered_fraction, 0.0);

  // A solid overlap plans normally.
  DeltaPlan half = DeltaPlanner::Plan(cache, Aabb({5, 0, 0}, {15, 10, 10}));
  EXPECT_TRUE(half.source.has_value());
  EXPECT_NEAR(half.covered_fraction, 0.5, 1e-6);
}

// --------------------------------------------------------------------------
// DeltaPlanner end-to-end exactness (pure geometry, no backends)
// --------------------------------------------------------------------------

ElementVec BruteForce(const ElementVec& elements, const Aabb& box) {
  ElementVec out;
  for (const auto& e : elements) {
    if (e.bounds.Intersects(box)) out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const SpatialElement& a, const SpatialElement& b) {
              return a.id < b.id;
            });
  return out;
}

TEST(DeltaPlannerTest, RandomizedDeltaAnswersEqualFullReQuery) {
  Pcg32 rng(21);
  // A random element cloud with ids in insertion order.
  ElementVec elements;
  for (uint64_t id = 0; id < 2000; ++id) {
    Aabb b = RandomBox(&rng, 100.0f);
    b.max = b.min + (b.max - b.min) * 0.05f;  // small boxes
    elements.emplace_back(id, b);
  }

  ResultCache cache(4);
  for (int round = 0; round < 300; ++round) {
    Aabb query = RandomBox(&rng, 100.0f);
    DeltaPlan plan = DeltaPlanner::Plan(cache, query);

    ElementVec answer;
    if (plan.source.has_value()) {
      EXPECT_GE(plan.covered_fraction, 0.0);
      EXPECT_LE(plan.covered_fraction, 1.0);
      EXPECT_NEAR(plan.covered_fraction + plan.residual_fraction, 1.0, 1e-9);
      // Residual parts answered "by the backend" = brute force here.
      ElementVec residual_results;
      for (const Aabb& residual : plan.residuals) {
        ElementVec part = BruteForce(elements, residual);
        residual_results.insert(residual_results.end(), part.begin(),
                                part.end());
      }
      answer = DeltaPlanner::MergeById(cache.entry(*plan.source), query,
                                       std::move(residual_results));
    } else {
      answer = BruteForce(elements, query);
    }

    // The delta answer must be byte-identical to a full re-query.
    ElementVec truth = BruteForce(elements, query);
    ASSERT_EQ(answer.size(), truth.size()) << "round " << round;
    for (size_t i = 0; i < truth.size(); ++i) {
      ASSERT_EQ(answer[i].id, truth[i].id) << "round " << round;
    }

    cache.Insert(query, std::move(answer));
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace cache

// --------------------------------------------------------------------------
// storage::PoolManager
// --------------------------------------------------------------------------

namespace storage {
namespace {

TEST(PoolManagerTest, GetOrCreateIsIdempotentByName) {
  PageStore store;
  PageId page = store.Allocate();
  ASSERT_TRUE(store.Write(page, {geom::SpatialElement(
                                    1, geom::Aabb({0, 0, 0}, {1, 1, 1}))})
                  .ok());

  PoolManager manager(64);
  PoolSet* first = manager.GetOrCreate("FLAT", {&store});
  PoolSet* again = manager.GetOrCreate("FLAT", {&store});
  EXPECT_EQ(first, again);
  EXPECT_EQ(manager.NumSets(), 1u);
  EXPECT_EQ(manager.Stats().sets_created, 1u);
  EXPECT_EQ(manager.Stats().sets_reused, 1u);

  // A different name is a different set; an explicit budget is honored.
  PoolSet* other = manager.GetOrCreate("Grid", {&store}, 8);
  EXPECT_NE(other, first);
  EXPECT_EQ(other->pool(0)->capacity(), 8u);
  EXPECT_EQ(first->pool(0)->capacity(), 64u);
}

TEST(PoolManagerTest, StatsAggregateHitsMissesAndEvictions) {
  PageStore store;
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    PageId page = store.Allocate();
    ASSERT_TRUE(store.Write(page, {geom::SpatialElement(
                                      static_cast<uint64_t>(i),
                                      geom::Aabb({0, 0, 0}, {1, 1, 1}))})
                    .ok());
    pages.push_back(page);
  }

  PoolManager manager(16);
  PoolSet* set = manager.GetOrCreate("FLAT", {&store});
  for (PageId page : pages) ASSERT_TRUE(set->pool(0)->Fetch(page).ok());
  for (PageId page : pages) ASSERT_TRUE(set->pool(0)->Fetch(page).ok());

  PoolManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.pool_sets, 1u);
  EXPECT_EQ(stats.pools, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.pages_cached, 4u);
  EXPECT_EQ(set->Counters(), (PoolCounters{4, 4, 0}));

  // Named eviction drops the pages and counts them.
  EXPECT_TRUE(manager.Evict("FLAT"));
  EXPECT_FALSE(manager.Evict("NoSuchSet"));
  stats = manager.Stats();
  EXPECT_EQ(stats.pages_cached, 0u);
  EXPECT_EQ(stats.evictions, 4u);

  // Priced by the cost model: one read per miss and one hit cost per hit.
  DiskCostModel cost;
  EXPECT_EQ(set->Counters().ModeledMicros(cost),
            4 * cost.page_read_micros + 4 * cost.page_hit_micros);

  // Remove retires the set's history: counters never decrease.
  EXPECT_TRUE(manager.Remove("FLAT"));
  EXPECT_EQ(manager.NumSets(), 0u);
  stats = manager.Stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 4u);
}

}  // namespace
}  // namespace storage
}  // namespace neurodb
