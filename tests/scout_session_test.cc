// End-to-end walkthrough behaviour: accounting identities, prefetch
// effectiveness on structure-following paths (SCOUT must beat no
// prefetching and win on hit rate), and candidate pruning.

#include "scout/session.h"

#include <gtest/gtest.h>

#include "flat/flat_index.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"

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

  neuro::Circuit circuit_;
  neuro::SegmentDataset dataset_;
  neuro::SegmentResolver resolver_;
  storage::PageStore store_;
  std::optional<flat::FlatIndex> index_;
  std::vector<Aabb> queries_;
};

TEST_F(SessionFixture, AccountingIdentitiesHold) {
  WalkthroughSession session(&*index_, &store_, &resolver_, DefaultOptions());
  auto result = session.Run(queries_, PrefetchMethod::kNone);
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
  WalkthroughSession session(&*index_, &store_, &resolver_, DefaultOptions());
  auto none = session.Run(queries_, PrefetchMethod::kNone);
  auto scout = session.Run(queries_, PrefetchMethod::kScout);
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE(scout.ok());
  EXPECT_GT(scout->prefetch_issued, 0u);
  EXPECT_GT(scout->prefetch_used, 0u);
  // Following a branch, SCOUT must cut the stall substantially.
  EXPECT_LT(scout->total_stall_us, none->total_stall_us);
  EXPECT_GT(scout->HitRate(), none->HitRate());
}

TEST_F(SessionFixture, ScoutBeatsBaselinesOnHitRate) {
  WalkthroughSession session(&*index_, &store_, &resolver_, DefaultOptions());
  auto hilbert = session.Run(queries_, PrefetchMethod::kHilbert);
  auto scout = session.Run(queries_, PrefetchMethod::kScout);
  ASSERT_TRUE(hilbert.ok());
  ASSERT_TRUE(scout.ok());
  EXPECT_GE(scout->HitRate(), hilbert->HitRate());
}

TEST_F(SessionFixture, PrefetchBudgetIsHonoredPerStep) {
  SessionOptions options = DefaultOptions();
  options.think_time_us = 20'000;  // only 4 pages at 5 ms each
  WalkthroughSession session(&*index_, &store_, &resolver_, options);
  auto result = session.Run(queries_, PrefetchMethod::kScout);
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

  WalkthroughSession session(&*index_, &store_, &resolver_, options);
  auto result = session.Run(queries_, PrefetchMethod::kScout);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_LE(step.prefetched, options.pool_pages);
  }
}

TEST_F(SessionFixture, ScoutCandidatesShrinkAlongThePath) {
  // Paper Figure 5: the candidate set narrows as the sequence continues.
  WalkthroughSession session(&*index_, &store_, &resolver_, DefaultOptions());
  auto result = session.Run(queries_, PrefetchMethod::kScout);
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
  WalkthroughSession session(&*index_, &store_, &resolver_, DefaultOptions());
  auto a = session.Run(queries_, PrefetchMethod::kExtrapolation);
  auto b = session.Run(queries_, PrefetchMethod::kExtrapolation);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_stall_us, b->total_stall_us);
  EXPECT_EQ(a->prefetch_issued, b->prefetch_issued);
  EXPECT_EQ(a->pages_missed, b->pages_missed);
}

// The box-predicting prefetchers hand each predicted box over with the
// page list they computed to prefetch it, so a cached session need not
// compute it again; a box predicted past the budget carries none.
TEST_F(SessionFixture, PredictionsCarryThePagesTheyPrefetched) {
  for (PrefetchMethod method :
       {PrefetchMethod::kScout, PrefetchMethod::kExtrapolation}) {
    SCOPED_TRACE(PrefetchMethodName(method));
    for (size_t budget : {size_t{0}, size_t{4096}}) {
      storage::BufferPool pool(&store_, 4096);
      PrefetchContext ctx;
      ctx.index = &*index_;
      ctx.pool = &pool;
      ctx.resolver = &resolver_;
      auto prefetcher = MakePrefetcher(method, ctx);
      ASSERT_TRUE(prefetcher.ok());
      size_t predicted = 0;
      for (const Aabb& query : queries_) {
        std::vector<geom::ElementId> ids;
        geom::VectorVisitor visitor(&ids);
        ASSERT_TRUE(index_->RangeQuery(query, &pool, visitor).ok());
        (*prefetcher)->AfterQuery(query, ids, budget);
        for (const PredictedBox& box : (*prefetcher)->PredictedBoxes()) {
          ++predicted;
          if (budget == 0) {
            EXPECT_FALSE(box.pages.has_value());
          } else {
            ASSERT_TRUE(box.pages.has_value());
            EXPECT_EQ(*box.pages, index_->PagesInRange(box.box));
          }
        }
      }
      EXPECT_GT(predicted, 0u);
    }
  }
}

TEST_F(SessionFixture, NullWiringFails) {
  WalkthroughSession bad(nullptr, &store_, &resolver_, DefaultOptions());
  EXPECT_FALSE(bad.Run(queries_, PrefetchMethod::kNone).ok());
}

TEST_F(SessionFixture, ScoutWithoutResolverFails) {
  WalkthroughSession session(&*index_, &store_, nullptr, DefaultOptions());
  EXPECT_FALSE(session.Run(queries_, PrefetchMethod::kScout).ok());
  // Non-content-aware methods still work without a resolver.
  EXPECT_TRUE(session.Run(queries_, PrefetchMethod::kHilbert).ok());
}

TEST_F(SessionFixture, EmptyQuerySequence) {
  WalkthroughSession session(&*index_, &store_, &resolver_, DefaultOptions());
  auto result = session.Run({}, PrefetchMethod::kScout);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->steps.empty());
  EXPECT_EQ(result->total_time_us, 0u);
}

}  // namespace
}  // namespace scout
}  // namespace neurodb
