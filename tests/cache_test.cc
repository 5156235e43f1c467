// Tests of the result-cache subsystem (src/cache/): box subtraction
// geometry, cache eviction and lookup policy, and delta-plan exactness
// against brute force.

#include "cache/delta_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/result_cache.h"
#include "common/rng.h"

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

/// A scan that counts its runs and answers `results` for any box.
ScanFn CountingScan(int* runs, ElementVec results = {}) {
  return [runs, results](const Aabb&, ElementVec* out) {
    ++*runs;
    out->insert(out->end(), results.begin(), results.end());
    return Status::OK();
  };
}

TEST(ResultCacheTest, UnscannedEntriesFollowTheBoxRules) {
  int runs = 0;
  ResultCache cache(2);
  const Aabb big({0, 0, 0}, {10, 10, 10});
  cache.InsertUnscanned(big, CountingScan(&runs));
  cache.Insert(Aabb({100, 0, 0}, {101, 1, 1}), OneElement(2));
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.entry(0).scanned());
  EXPECT_TRUE(cache.entry(1).scanned());

  // Covered refresh: the unscanned entry moves to most-recent, unscanned.
  cache.Insert(Aabb({2, 2, 2}, {3, 3, 3}), OneElement(9));
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entry(1).box, big);
  EXPECT_FALSE(cache.entry(1).scanned());
  EXPECT_TRUE(cache.Covers(Aabb({1, 1, 1}, {9, 9, 9})));

  // BestOverlap weighs an unscanned entry by its box alone.
  auto best = cache.BestOverlap(Aabb({5, 0, 0}, {15, 10, 10}));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(cache.entry(*best).box, big);

  // Capacity eviction is FIFO whatever the entry's state: the scanned
  // entry is now the oldest and goes first.
  cache.InsertUnscanned(Aabb({50, 0, 0}, {60, 10, 10}), CountingScan(&runs));
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entry(0).box, big);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // A dirty region invalidates an unscanned entry like any other.
  cache.AdvanceEpoch(1, Aabb({55, 5, 5}, {56, 6, 6}));
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidated_boxes, 1u);

  // Subsumption drops it too.
  cache.InsertUnscanned(Aabb({-1, -1, -1}, {20, 20, 20}), CountingScan(&runs));
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);

  // Only stored unscanned inserts count as deferred (this covered one
  // stores nothing), and no box rule ever ran a scan.
  cache.InsertUnscanned(Aabb({0, 0, 0}, {1, 1, 1}), CountingScan(&runs));
  EXPECT_EQ(cache.stats().deferred, 3u);
  EXPECT_EQ(cache.stats().insertions, 4u);
  EXPECT_EQ(cache.stats().scanned, 0u);
  EXPECT_EQ(runs, 0);

  // Dropping unscanned entries leaves scanned ones.
  cache.Insert(Aabb({200, 0, 0}, {201, 1, 1}), OneElement(4));
  cache.DropUnscanned();
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.entry(0).scanned());
  EXPECT_EQ(cache.entry(0).results[0].id, 4u);
}

TEST(DeltaPlannerTest, AnswerScansOnlyThePickedEntryOnce) {
  Pcg32 rng(5);
  ElementVec elements;
  for (uint64_t id = 0; id < 500; ++id) {
    Aabb b = RandomBox(&rng, 100.0f);
    b.max = b.min + (b.max - b.min) * 0.05f;
    elements.emplace_back(id, b);
  }
  auto brute = [&](const Aabb& box) {
    ElementVec out;
    for (const auto& e : elements) {
      if (e.bounds.Intersects(box)) out.push_back(e);
    }
    SortById(&out);
    return out;
  };
  const Aabb boxes[] = {Aabb({0, 0, 0}, {30, 30, 30}),
                        Aabb({40, 40, 40}, {70, 70, 70}),
                        Aabb({0, 60, 0}, {30, 90, 30})};
  int runs[3] = {0, 0, 0};
  ResultCache cache(4);
  for (int i = 0; i < 3; ++i) {
    cache.InsertUnscanned(boxes[i], [&runs, i, &brute](const Aabb& box,
                                                       ElementVec* out) {
      ++runs[i];
      *out = brute(box);
      return Status::OK();
    });
  }

  int residual_queries = 0;
  auto residual = [&](const Aabb& part, geom::CollectingVisitor* out) {
    ++residual_queries;
    for (const SpatialElement& e : brute(part)) out->Visit(e.id, e.bounds);
    return Status::OK();
  };
  // Mostly inside the second box: the plan picks it, three times over.
  const Aabb query({45, 45, 45}, {75, 72, 72});
  for (int round = 0; round < 3; ++round) {
    DeltaPlan plan;
    auto answer = DeltaPlanner::Answer(cache, query, residual, &plan);
    ASSERT_TRUE(answer.ok());
    ASSERT_TRUE(plan.source.has_value());
    EXPECT_EQ(cache.entry(*plan.source).box, boxes[1]);
    const ElementVec truth = brute(query);
    ASSERT_EQ(answer->size(), truth.size());
    for (size_t k = 0; k < truth.size(); ++k) {
      EXPECT_EQ((*answer)[k].id, truth[k].id);
    }
  }
  EXPECT_GT(residual_queries, 0);
  EXPECT_EQ(runs[0], 0);
  EXPECT_EQ(runs[1], 1);
  EXPECT_EQ(runs[2], 0);
  EXPECT_EQ(cache.stats().scanned, 1u);
}

TEST(DeltaPlannerTest, FailedScanFailsTheAnswer) {
  ResultCache cache(4);
  const Aabb box({0, 0, 0}, {10, 10, 10});
  cache.InsertUnscanned(box, [](const Aabb&, ElementVec* out) {
    // Part of an answer, then a failure: none of it may be served.
    out->emplace_back(1, Aabb({1, 1, 1}, {2, 2, 2}));
    return Status::IOError("page gone");
  });
  int residual_queries = 0;
  auto residual = [&](const Aabb&, geom::CollectingVisitor* out) {
    ++residual_queries;
    out->Visit(7, Aabb({5, 5, 5}, {6, 6, 6}));
    return Status::OK();
  };

  auto failed = DeltaPlanner::Answer(cache, box, residual, nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  EXPECT_EQ(residual_queries, 0);
  // The entry is gone, so the next answer runs as a full miss.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().scanned, 0u);
  DeltaPlan plan;
  auto retried = DeltaPlanner::Answer(cache, box, residual, &plan);
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(plan.source.has_value());
  ASSERT_EQ(retried->size(), 1u);
  EXPECT_EQ((*retried)[0].id, 7u);
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
}  // namespace neurodb
