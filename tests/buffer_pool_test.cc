#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "storage/pool_set.h"

namespace neurodb {
namespace storage {
namespace {

PageStore MakeStore(size_t pages) {
  PageStore store;
  for (size_t i = 0; i < pages; ++i) {
    PageId id = store.Allocate();
    std::vector<geom::SpatialElement> elems(1);
    elems[0].id = i;
    EXPECT_TRUE(store.Write(id, std::move(elems)).ok());
  }
  return store;
}

TEST(BufferPoolTest, MissThenHit) {
  PageStore store = MakeStore(4);
  BufferPool pool(&store, 4);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.Counters().misses, 1u);
  EXPECT_EQ(pool.Counters().hits, 1u);
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_FALSE(pool.Contains(1));
}

TEST(BufferPoolTest, LruEvictionOrder) {
  PageStore store = MakeStore(4);
  BufferPool pool(&store, 2);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());  // touch 0: 1 becomes LRU
  ASSERT_TRUE(pool.Fetch(2).ok());  // evicts 1
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_EQ(pool.Counters().evictions, 1u);
}

TEST(BufferPoolTest, CapacityZeroBecomesOne) {
  PageStore store = MakeStore(2);
  BufferPool pool(&store, 0);
  EXPECT_EQ(pool.capacity(), 1u);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  EXPECT_EQ(pool.NumCached(), 1u);
}

TEST(BufferPoolTest, FetchUnknownPageFails) {
  PageStore store = MakeStore(1);
  BufferPool pool(&store, 2);
  EXPECT_FALSE(pool.Fetch(9).ok());
  // A failed fetch must not corrupt the cache.
  EXPECT_EQ(pool.NumCached(), 0u);
}

TEST(BufferPoolTest, ClockChargesMissAndHitCosts) {
  PageStore store = MakeStore(2);
  SimClock clock;
  DiskCostModel cost;
  cost.page_read_micros = 1000;
  cost.page_hit_micros = 10;
  BufferPool pool(&store, 2, &clock, cost);
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(clock.NowMicros(), 1000u);
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(clock.NowMicros(), 1010u);
}

TEST(BufferPoolTest, PrefetchDoesNotChargeDemandClock) {
  PageStore store = MakeStore(2);
  SimClock clock;
  BufferPool pool(&store, 2, &clock, DiskCostModel{});
  ASSERT_TRUE(pool.Prefetch(0).ok());
  EXPECT_EQ(clock.NowMicros(), 0u);
  EXPECT_TRUE(pool.Contains(0));
}

TEST(BufferPoolTest, PrefetchAccounting) {
  PageStore store = MakeStore(4);
  BufferPool pool(&store, 4);
  ASSERT_TRUE(pool.Prefetch(0).ok());
  ASSERT_TRUE(pool.Prefetch(1).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());  // uses the prefetched page
  EXPECT_EQ(pool.Counters().prefetch_issued, 2u);
  EXPECT_EQ(pool.Counters().prefetch_used, 1u);
  // Demanding the same page again is a plain hit, not another use.
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.Counters().prefetch_used, 1u);
}

TEST(BufferPoolTest, RedundantPrefetchIsCounted) {
  PageStore store = MakeStore(2);
  BufferPool pool(&store, 2);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Prefetch(0).ok());
  EXPECT_EQ(pool.Counters().prefetch_redundant, 1u);
  EXPECT_EQ(pool.Counters().prefetch_issued, 0u);
}

TEST(BufferPoolTest, EvictedUnusedPrefetchIsCounted) {
  PageStore store = MakeStore(4);
  BufferPool pool(&store, 1);
  ASSERT_TRUE(pool.Prefetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());  // evicts 0 before it was ever used
  EXPECT_EQ(pool.Counters().prefetch_evicted_unused, 1u);
}

TEST(BufferPoolTest, EvictAllColdResets) {
  PageStore store = MakeStore(3);
  BufferPool pool(&store, 3);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Prefetch(1).ok());
  EXPECT_EQ(pool.EvictAll(), 2u);
  EXPECT_EQ(pool.NumCached(), 0u);
  EXPECT_FALSE(pool.Contains(0));
  // After a cold reset the next fetch is a miss again.
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.Counters().misses, 2u);
}

// A pool set splits its page budget over one pool per store, counts the
// pages resident in all of them and drops them all at once. A tally is
// priced at one read per miss and one hit cost per hit.
TEST(PoolSetTest, SplitsTheBudgetOverItsPools) {
  PageStore a = MakeStore(4);
  PageStore b = MakeStore(4);
  PoolSet set({&a, &b}, 16);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.pool(0)->capacity(), 8u);
  EXPECT_EQ(set.pool(1)->capacity(), 8u);
  PoolCounters tally;
  for (PageId page = 0; page < 4; ++page) {
    ASSERT_TRUE(set.pool(0)->Fetch(page, &tally).ok());
    ASSERT_TRUE(set.pool(1)->Fetch(page, &tally).ok());
    ASSERT_TRUE(set.pool(1)->Fetch(page, &tally).ok());
  }
  EXPECT_EQ(tally, (PoolCounters{4, 8, 0}));
  EXPECT_EQ(set.PagesCached(), 8u);
  const DiskCostModel cost;
  EXPECT_EQ(tally.ModeledMicros(cost),
            8 * cost.page_read_micros + 4 * cost.page_hit_micros);
  EXPECT_EQ(set.EvictAll(), 8u);
  EXPECT_EQ(set.PagesCached(), 0u);
}

TEST(BufferPoolTest, TallyChargesTheFetchThatCausedIt) {
  PageStore store = MakeStore(3);
  BufferPool pool(&store, 2);
  PoolCounters first, second, third;
  ASSERT_TRUE(pool.Fetch(0, &first).ok());   // miss
  ASSERT_TRUE(pool.Fetch(1, &second).ok());  // miss
  ASSERT_TRUE(pool.Fetch(0, &second).ok());  // hit: 1 becomes LRU
  ASSERT_TRUE(pool.Fetch(2, &third).ok());   // miss that evicts 1
  EXPECT_EQ(first, (PoolCounters{0, 1, 0}));
  EXPECT_EQ(second, (PoolCounters{1, 1, 0}));
  EXPECT_EQ(third, (PoolCounters{0, 1, 1}));

  // The pool counts every fetch; a fetch without a tally charges no one.
  PoolCounters sum = first;
  sum += second;
  sum += third;
  EXPECT_EQ(sum, pool.Counters());
  ASSERT_TRUE(pool.Fetch(2).ok());
  EXPECT_EQ(pool.Counters().hits, sum.hits + 1);

  // An eviction caused by a prefetch goes to the prefetcher's tally.
  PoolCounters prefetcher;
  ASSERT_TRUE(pool.Prefetch(1, &prefetcher).ok());
  EXPECT_EQ(prefetcher, (PoolCounters{0, 0, 1}));
  EXPECT_EQ(pool.Counters().latch_waits, 0u);
}

TEST(BufferPoolTest, ConcurrentFetchPrefetchPeekEvictAllKeepTalliesExact) {
  constexpr size_t kPages = 32;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  PageStore store = MakeStore(kPages);
  BufferPool pool(&store, 8);

  std::vector<PoolCounters> tallies(kThreads);
  std::vector<uint64_t> fetches(kThreads, 0);
  std::atomic<bool> wrong_page{false};
  std::atomic<bool> failed{false};
  std::atomic<bool> over_capacity{false};
  auto check = [&](const Page* page, PageId id) {
    if (page->id != id || page->elements.size() != 1 ||
        page->elements[0].id != id) {
      wrong_page = true;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kOps; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const PageId id = static_cast<PageId>((x >> 33) % kPages);
        const uint64_t op = (x >> 20) % 16;
        if (op == 0) {
          pool.EvictAll();
        } else if (op < 4) {
          if (!pool.Prefetch(id, &tallies[t]).ok()) failed = true;
        } else if (op < 7) {
          if (const Page* page = pool.Peek(id)) check(page, id);
        } else {
          auto page = pool.Fetch(id, &tallies[t]);
          ++fetches[t];
          if (!page.ok()) {
            failed = true;
          } else {
            check(*page, id);
          }
        }
        if (pool.NumCached() > pool.capacity()) over_capacity = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PoolCounters sum;
  uint64_t total_fetches = 0;
  for (int t = 0; t < kThreads; ++t) {
    sum += tallies[t];
    total_fetches += fetches[t];
  }
  const BufferPoolCounters totals = pool.Counters();
  EXPECT_EQ(sum, totals);
  EXPECT_EQ(sum.accesses(), total_fetches);
  EXPECT_GT(sum.evictions, 0u);
  EXPECT_GE(totals.prefetch_issued,
            totals.prefetch_used + totals.prefetch_evicted_unused);
  EXPECT_LE(pool.NumCached(), pool.capacity());
  EXPECT_FALSE(wrong_page);
  EXPECT_FALSE(failed);
  EXPECT_FALSE(over_capacity);
}

}  // namespace
}  // namespace storage
}  // namespace neurodb
