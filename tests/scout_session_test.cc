// End-to-end walkthrough behaviour through engine::Session over a
// standalone FLAT index: accounting identities, prefetch effectiveness on
// structure-following paths (SCOUT must beat no prefetching and win on hit
// rate), candidate pruning, and Session::Open's wiring checks.

#include "scout/session.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_set>

#include "engine/session.h"
#include "flat/flat_index.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"
#include "scout/structure.h"

namespace neurodb {
namespace scout {
namespace {

using geom::Aabb;
using geom::Vec3;

class SessionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    neuro::CircuitParams params;
    params.num_neurons = 25;
    params.seed = 77;
    auto circuit = neuro::CircuitGenerator(params).Generate();
    ASSERT_TRUE(circuit.ok());
    circuit_ = std::move(circuit).value();

    dataset_ = circuit_.FlattenSegments();
    resolver_.AddDataset(dataset_);

    flat::FlatOptions options;
    options.elems_per_page = 64;
    auto index =
        flat::FlatIndex::Build(dataset_.Elements(), &store_, options);
    ASSERT_TRUE(index.ok());
    index_.emplace(std::move(index).value());

    auto path = neuro::FollowBranchPath(circuit_, 0, 10.0f, 1);
    ASSERT_TRUE(path.ok());
    queries_ = neuro::PathQueries(*path, 30.0f);
    ASSERT_GE(queries_.size(), 5u);
  }

  SessionOptions DefaultOptions() const {
    SessionOptions o;
    o.pool_pages = 4096;
    o.think_time_us = 500'000;
    o.cost.page_read_micros = 5000;
    o.cost.page_hit_micros = 10;
    return o;
  }

  /// Step a fresh session (cold pool, fresh clock) over the fixture's
  /// index through `queries` and return its summary.
  Result<SessionResult> Walk(const std::vector<Aabb>& queries,
                             PrefetchMethod method,
                             const SessionOptions& options) {
    NEURODB_ASSIGN_OR_RETURN(
        engine::Session session,
        engine::Session::Open(&*index_, &store_, &resolver_, method, options));
    for (const Aabb& box : queries) {
      NEURODB_RETURN_NOT_OK(session.Step(box).status());
    }
    return session.Summary();
  }

  neuro::Circuit circuit_;
  neuro::SegmentDataset dataset_;
  neuro::SegmentResolver resolver_;
  storage::PageStore store_;
  std::optional<flat::FlatIndex> index_;
  std::vector<Aabb> queries_;
};

TEST_F(SessionFixture, AccountingIdentitiesHold) {
  auto result = Walk(queries_, PrefetchMethod::kNone, DefaultOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), queries_.size());

  uint64_t stall_sum = 0;
  uint64_t missed_sum = 0;
  for (const auto& s : result->steps) {
    stall_sum += s.stall_us;
    missed_sum += s.pages_missed;
  }
  EXPECT_EQ(stall_sum, result->total_stall_us);
  EXPECT_EQ(missed_sum, result->pages_missed);
  // Total time = stalls + one think pause per query.
  EXPECT_EQ(result->total_time_us,
            result->total_stall_us +
                queries_.size() * DefaultOptions().think_time_us);
  // No prefetching happened.
  EXPECT_EQ(result->prefetch_issued, 0u);
  EXPECT_EQ(result->PrefetchPrecision(), 0.0);
}

TEST_F(SessionFixture, ScoutReducesStallVersusNone) {
  auto none = Walk(queries_, PrefetchMethod::kNone, DefaultOptions());
  auto scout = Walk(queries_, PrefetchMethod::kScout, DefaultOptions());
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE(scout.ok());
  EXPECT_GT(scout->prefetch_issued, 0u);
  EXPECT_GT(scout->prefetch_used, 0u);
  // Following a branch, SCOUT must cut the stall substantially.
  EXPECT_LT(scout->total_stall_us, none->total_stall_us);
  EXPECT_GT(scout->HitRate(), none->HitRate());
}

TEST_F(SessionFixture, ScoutBeatsBaselinesOnHitRate) {
  auto hilbert = Walk(queries_, PrefetchMethod::kHilbert, DefaultOptions());
  auto scout = Walk(queries_, PrefetchMethod::kScout, DefaultOptions());
  ASSERT_TRUE(hilbert.ok());
  ASSERT_TRUE(scout.ok());
  EXPECT_GE(scout->HitRate(), hilbert->HitRate());
}

TEST_F(SessionFixture, PrefetchBudgetIsHonoredPerStep) {
  SessionOptions options = DefaultOptions();
  options.think_time_us = 20'000;  // only 4 pages at 5 ms each
  auto result = Walk(queries_, PrefetchMethod::kScout, options);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_LE(step.prefetched, options.PrefetchBudget());
  }
}

TEST_F(SessionFixture, ZeroReadCostMeansZeroBudget) {
  SessionOptions options = DefaultOptions();
  options.cost.page_read_micros = 0;
  EXPECT_EQ(options.PrefetchBudget(), 0u);
}

TEST_F(SessionFixture, PrefetchBudgetIsCappedAtPoolCapacity) {
  // A huge think time used to "prefetch" more pages than the pool can
  // hold, silently evicting what it just warmed. The budget now caps at
  // pool_pages.
  SessionOptions options = DefaultOptions();
  options.pool_pages = 8;
  options.think_time_us = 10'000'000;  // 2000 pages at 5 ms each
  EXPECT_EQ(options.PrefetchBudget(), 8u);

  auto result = Walk(queries_, PrefetchMethod::kScout, options);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_LE(step.prefetched, options.pool_pages);
  }
}

TEST_F(SessionFixture, ScoutCandidatesShrinkAlongThePath) {
  // Paper Figure 5: the candidate set narrows as the sequence continues.
  auto result = Walk(queries_, PrefetchMethod::kScout, DefaultOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->steps.size(), 3u);
  uint64_t first = result->steps.front().candidates;
  uint64_t later_max = 0;
  for (size_t i = 2; i < result->steps.size(); ++i) {
    later_max = std::max(later_max, result->steps[i].candidates);
  }
  EXPECT_GT(first, 0u);
  EXPECT_LE(later_max, first)
      << "pruning should not grow the candidate set while following";
}

TEST_F(SessionFixture, RunsAreIndependentAndRepeatable) {
  auto a = Walk(queries_, PrefetchMethod::kExtrapolation, DefaultOptions());
  auto b = Walk(queries_, PrefetchMethod::kExtrapolation, DefaultOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_stall_us, b->total_stall_us);
  EXPECT_EQ(a->prefetch_issued, b->prefetch_issued);
  EXPECT_EQ(a->pages_missed, b->pages_missed);
}

/// Every page whose MBR intersects `box`, ascending: the page lists'
/// oracle, independent of the seed tree.
std::vector<uint32_t> PagesByBounds(const flat::FlatIndex& index,
                                    const Aabb& box) {
  std::vector<uint32_t> pages;
  for (uint32_t i = 0; i < index.NumPages(); ++i) {
    if (index.PageBounds(i).Intersects(box)) pages.push_back(i);
  }
  return pages;
}

// The box-predicting prefetchers hand each predicted box over with the
// page list they computed to prefetch it, so a cached session need not
// compute it again; a box predicted past the budget carries none. Budgets
// of 1 and 3 pages run out in the middle of a step, and SCOUT looks two
// boxes deep per exit once one candidate is left.
TEST_F(SessionFixture, PredictionsCarryThePagesTheyPrefetched) {
  for (PrefetchMethod method :
       {PrefetchMethod::kScout, PrefetchMethod::kExtrapolation}) {
    SCOPED_TRACE(PrefetchMethodName(method));
    for (size_t budget : {size_t{0}, size_t{1}, size_t{3}, size_t{4096}}) {
      SCOPED_TRACE(budget);
      storage::BufferPool pool(&store_, 4096);
      PrefetchContext ctx;
      ctx.index = &*index_;
      ctx.pool = &pool;
      ctx.resolver = &resolver_;
      auto prefetcher = MakePrefetcher(method, ctx, ScoutOptions());
      ASSERT_TRUE(prefetcher.ok());
      size_t predicted = 0, unpaged = 0, one_candidate = 0;
      for (const Aabb& query : queries_) {
        std::vector<geom::ElementId> ids;
        geom::VectorVisitor visitor(&ids);
        ASSERT_TRUE(index_->RangeQuery(query, &pool, visitor).ok());
        const size_t loaded = (*prefetcher)->AfterQuery(query, ids, budget);
        EXPECT_LE(loaded, budget);
        if ((*prefetcher)->CandidateCount() == 1) ++one_candidate;
        const std::vector<PredictedBox>& boxes =
            (*prefetcher)->PredictedBoxes();
        for (size_t b = 0; b < boxes.size(); ++b) {
          ++predicted;
          if (budget == 0) {
            EXPECT_FALSE(boxes[b].pages.has_value());
          }
          if (budget == 4096 || (budget > 0 && b == 0)) {
            EXPECT_TRUE(boxes[b].pages.has_value());
          }
          if (boxes[b].pages.has_value()) {
            EXPECT_EQ(*boxes[b].pages, PagesByBounds(*index_, boxes[b].box));
          } else {
            ++unpaged;
          }
        }
      }
      EXPECT_GT(predicted, 0u);
      if (method == PrefetchMethod::kScout) {
        // SCOUT's small budgets run out mid-step on this path.
        if (budget == 1 || budget == 3) {
          EXPECT_GT(unpaged, 0u);
        }
        EXPECT_GT(one_candidate, 0u);
      }
    }
  }
}

/// SCOUT's think step as it ran with one FlatIndex::PagesInRange per
/// predicted box, kept as the reference for the batched page lookups: the
/// same skeleton, pruning and boxes, each box's pages computed (here from
/// the page bounds) right before its prefetch while budget is left.
class PerExitScout {
 public:
  PerExitScout(const flat::FlatIndex* index, storage::BufferPool* pool,
               const neuro::SegmentResolver* resolver)
      : index_(index), pool_(pool), resolver_(resolver) {}

  size_t AfterQuery(const Aabb& query,
                    const std::vector<geom::ElementId>& result,
                    size_t budget) {
    predicted.clear();
    auto structures = ExtractStructures(result, *resolver_, query);
    if (!structures.ok()) return 0;
    std::vector<const Structure*> candidates;
    for (const Structure& s : *structures) {
      if (!s.HasExit()) continue;
      for (geom::ElementId e : s.elements) {
        if (candidate_ids_.count(e) > 0) {
          candidates.push_back(&s);
          break;
        }
      }
    }
    if (candidates.empty()) {
      for (const Structure& s : *structures) {
        if (s.HasExit()) candidates.push_back(&s);
      }
    }
    candidate_count = candidates.size();
    candidate_ids_.clear();
    for (const Structure* s : candidates) {
      candidate_ids_.insert(s->elements.begin(), s->elements.end());
    }
    const Vec3 center = query.Center();
    const float side = query.Extent().x;
    float step = side * 0.5f;
    if (prev_center_.has_value()) {
      const double moved = geom::Distance(center, *prev_center_);
      if (moved > 0.0) step = static_cast<float>(moved);
    }
    prev_center_ = center;

    size_t loaded = 0;
    const bool deep = candidates.size() == 1;
    for (const Structure* s : candidates) {
      for (const StructureExit& exit : s->exits) {
        if (loaded >= budget && predicted.size() >= 4) break;
        Predict(Aabb::Cube(exit.point + exit.direction * step, side), budget,
                &loaded);
        if (deep) {
          Predict(Aabb::Cube(exit.point + exit.direction * (2.0f * step), side),
                  budget, &loaded);
        }
      }
    }
    return loaded;
  }

  std::vector<PredictedBox> predicted;
  size_t candidate_count = 0;

 private:
  void Predict(const Aabb& box, size_t budget, size_t* loaded) {
    PredictedBox prediction{box, std::nullopt};
    if (*loaded < budget) {
      prediction.pages = PagesByBounds(*index_, box);
      for (uint32_t page : *prediction.pages) {
        if (*loaded >= budget) break;
        const storage::PageId id = index_->PageAt(page);
        if (pool_->Contains(id)) continue;
        if (pool_->Prefetch(id).ok()) ++*loaded;
      }
    }
    if (predicted.size() < 4) predicted.push_back(std::move(prediction));
  }

  const flat::FlatIndex* index_;
  storage::BufferPool* pool_;
  const neuro::SegmentResolver* resolver_;
  std::unordered_set<geom::ElementId> candidate_ids_;
  std::optional<Vec3> prev_center_;
};

// SCOUT predicts, prefetches and hands over exactly what the per-exit loop
// did, step by step, whatever the budget and the pool size: the pools see
// the same demand reads and must end every step in the same state.
TEST_F(SessionFixture, ScoutMatchesThePerExitReference) {
  auto branch = neuro::FollowBranchPath(circuit_, 5, 10.0f, 3);
  ASSERT_TRUE(branch.ok());
  std::vector<Aabb> queries = queries_;
  for (const Aabb& box : neuro::PathQueries(*branch, 30.0f)) {
    queries.push_back(box);
  }
  for (size_t pool_pages : {size_t{12}, size_t{4096}}) {
    for (size_t budget : {size_t{0}, size_t{1}, size_t{3}, size_t{4096}}) {
      SCOPED_TRACE(std::to_string(budget) + " pages, pool " +
                   std::to_string(pool_pages));
      storage::BufferPool pool(&store_, pool_pages);
      storage::BufferPool reference_pool(&store_, pool_pages);
      PrefetchContext ctx;
      ctx.index = &*index_;
      ctx.pool = &pool;
      ctx.resolver = &resolver_;
      auto scout = MakePrefetcher(PrefetchMethod::kScout, ctx, ScoutOptions());
      ASSERT_TRUE(scout.ok());
      PerExitScout reference(&*index_, &reference_pool, &resolver_);
      for (size_t q = 0; q < queries.size(); ++q) {
        std::vector<geom::ElementId> ids, reference_ids;
        geom::VectorVisitor visitor(&ids);
        geom::VectorVisitor reference_visitor(&reference_ids);
        ASSERT_TRUE(index_->RangeQuery(queries[q], &pool, visitor).ok());
        ASSERT_TRUE(index_->RangeQuery(queries[q], &reference_pool,
                                       reference_visitor)
                        .ok());
        ASSERT_EQ(ids, reference_ids);
        EXPECT_EQ((*scout)->AfterQuery(queries[q], ids, budget),
                  reference.AfterQuery(queries[q], ids, budget))
            << "step " << q;
        EXPECT_EQ((*scout)->CandidateCount(), reference.candidate_count);
        const std::vector<PredictedBox>& got = (*scout)->PredictedBoxes();
        ASSERT_EQ(got.size(), reference.predicted.size()) << "step " << q;
        for (size_t b = 0; b < got.size(); ++b) {
          EXPECT_TRUE(got[b].box.min == reference.predicted[b].box.min &&
                      got[b].box.max == reference.predicted[b].box.max)
              << "step " << q << ", box " << b;
          EXPECT_EQ(got[b].pages, reference.predicted[b].pages)
              << "step " << q << ", box " << b;
        }
        const storage::BufferPoolCounters counters = pool.Counters();
        const storage::BufferPoolCounters want = reference_pool.Counters();
        EXPECT_EQ(counters.prefetch_issued, want.prefetch_issued);
        EXPECT_EQ(counters.prefetch_used, want.prefetch_used);
        EXPECT_EQ(counters.hits, want.hits);
        EXPECT_EQ(counters.misses, want.misses);
        EXPECT_EQ(counters.evictions, want.evictions);
      }
    }
  }
}

TEST_F(SessionFixture, NullWiringFails) {
  EXPECT_TRUE(engine::Session::Open(nullptr, &store_, &resolver_,
                                    PrefetchMethod::kNone, DefaultOptions())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine::Session::Open(&*index_, nullptr, &resolver_,
                                    PrefetchMethod::kNone, DefaultOptions())
                  .status()
                  .IsInvalidArgument());
}

TEST_F(SessionFixture, ScoutWithoutResolverFails) {
  EXPECT_TRUE(engine::Session::Open(&*index_, &store_, nullptr,
                                    PrefetchMethod::kScout, DefaultOptions())
                  .status()
                  .IsInvalidArgument());
  // Non-content-aware methods still work without a resolver.
  auto session = engine::Session::Open(&*index_, &store_, nullptr,
                                       PrefetchMethod::kHilbert,
                                       DefaultOptions());
  ASSERT_TRUE(session.ok());
  for (const Aabb& box : queries_) EXPECT_TRUE(session->Step(box).ok());
}

TEST_F(SessionFixture, EmptyQuerySequence) {
  auto result = Walk({}, PrefetchMethod::kScout, DefaultOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->steps.empty());
  EXPECT_EQ(result->total_time_us, 0u);
}

}  // namespace
}  // namespace scout
}  // namespace neurodb
