// BufferPool tests: LRU order, the time model, prefetch accounting, tallies
// under concurrent readers, and the pool as the only page cache — it owns
// the handles it caches, bounds the decoded pages of a disk store, and
// sends every miss to the device.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "storage/disk/disk_page_store.h"
#include "storage/pool_set.h"

namespace neurodb {
namespace storage {
namespace {

constexpr size_t kElemsPerPage = 8;

// Temp directories live under the test's working directory (the build
// tree), never outside the repo.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "ndb_pool_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Writes `pages` pages to `store`; page i holds the elements with ids
// i * kElemsPerPage onwards.
void Fill(PageStore* store, size_t pages) {
  for (size_t i = 0; i < pages; ++i) {
    PageId id = store->Allocate();
    std::vector<geom::SpatialElement> elems(kElemsPerPage);
    for (size_t j = 0; j < kElemsPerPage; ++j) {
      elems[j].id = i * kElemsPerPage + j;
    }
    EXPECT_TRUE(store->Write(id, std::move(elems)).ok());
  }
}

// Page `id` as Fill wrote it: scans every element.
bool IsPage(const Page& page, PageId id) {
  if (page.id != id || page.elements.size() != kElemsPerPage) return false;
  for (size_t j = 0; j < kElemsPerPage; ++j) {
    if (page.elements[j].id != id * kElemsPerPage + j) return false;
  }
  return true;
}

std::unique_ptr<DiskPageStore> MakeDiskStore(const std::string& path,
                                             size_t pages) {
  auto made = DiskPageStore::Create(path);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return nullptr;
  Fill(made->get(), pages);
  return std::move(*made);
}

TEST(BufferPoolTest, MissThenHit) {
  PageStore store;
  Fill(&store, 4);
  BufferPool pool(&store, 4);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.Counters().misses, 1u);
  EXPECT_EQ(pool.Counters().hits, 1u);
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_FALSE(pool.Contains(1));
}

TEST(BufferPoolTest, LruEvictionOrder) {
  PageStore store;
  Fill(&store, 4);
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
  PageStore store;
  Fill(&store, 2);
  BufferPool pool(&store, 0);
  EXPECT_EQ(pool.capacity(), 1u);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  EXPECT_EQ(pool.NumCached(), 1u);
}

TEST(BufferPoolTest, FetchUnknownPageFails) {
  PageStore store;
  Fill(&store, 1);
  BufferPool pool(&store, 2);
  EXPECT_FALSE(pool.Fetch(9).ok());
  // A failed fetch must not corrupt the cache.
  EXPECT_EQ(pool.NumCached(), 0u);
}

TEST(BufferPoolTest, ClockChargesMissAndHitCosts) {
  PageStore store;
  Fill(&store, 2);
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
  PageStore store;
  Fill(&store, 2);
  SimClock clock;
  BufferPool pool(&store, 2, &clock, DiskCostModel{});
  ASSERT_TRUE(pool.Prefetch(0).ok());
  EXPECT_EQ(clock.NowMicros(), 0u);
  EXPECT_TRUE(pool.Contains(0));
}

TEST(BufferPoolTest, PrefetchAccounting) {
  PageStore store;
  Fill(&store, 4);
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
  PageStore store;
  Fill(&store, 2);
  BufferPool pool(&store, 2);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Prefetch(0).ok());
  EXPECT_EQ(pool.Counters().prefetch_redundant, 1u);
  EXPECT_EQ(pool.Counters().prefetch_issued, 0u);
}

TEST(BufferPoolTest, EvictedUnusedPrefetchIsCounted) {
  PageStore store;
  Fill(&store, 4);
  BufferPool pool(&store, 1);
  ASSERT_TRUE(pool.Prefetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());  // evicts 0 before it was ever used
  EXPECT_EQ(pool.Counters().prefetch_evicted_unused, 1u);
}

TEST(BufferPoolTest, EvictAllColdResets) {
  PageStore store;
  Fill(&store, 3);
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
  PageStore a;
  Fill(&a, 4);
  PageStore b;
  Fill(&b, 4);
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
  PageStore store;
  Fill(&store, 3);
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

// Four threads fetch, prefetch, peek and evict one pool smaller than its
// store, so scans race evictions. Every tally adds up to the pool's
// counters, and every handle still reads its own page after the pool has
// dropped it.
void RaceOnePool(PageStore* store, size_t capacity) {
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  const size_t pages = store->NumPages();
  ASSERT_LT(capacity, pages);
  BufferPool pool(store, capacity);

  std::vector<PoolCounters> tallies(kThreads);
  std::vector<uint64_t> fetches(kThreads, 0);
  std::atomic<bool> wrong_page{false};
  std::atomic<bool> failed{false};
  std::atomic<bool> over_capacity{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = static_cast<uint64_t>(t) + 1;
      for (int i = 0; i < kOps; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const PageId id = static_cast<PageId>((x >> 33) % pages);
        const uint64_t op = (x >> 20) % 16;
        if (op == 0) {
          pool.EvictAll();
        } else if (op < 4) {
          if (!pool.Prefetch(id, &tallies[t]).ok()) failed = true;
        } else if (op < 7) {
          if (auto page = pool.Peek(id); page && !IsPage(*page, id)) {
            wrong_page = true;
          }
        } else {
          auto page = pool.Fetch(id, &tallies[t]);
          ++fetches[t];
          if (!page.ok()) {
            failed = true;
          } else if (!IsPage(**page, id)) {
            wrong_page = true;
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

TEST(BufferPoolTest, ConcurrentFetchPrefetchPeekEvictAllKeepTalliesExact) {
  {
    SCOPED_TRACE("memory store");
    PageStore store;
    Fill(&store, 32);
    RaceOnePool(&store, 8);
  }
  {
    SCOPED_TRACE("disk store");
    TempDir dir;
    std::unique_ptr<DiskPageStore> store =
        MakeDiskStore(dir.File("race.pages"), 32);
    ASSERT_NE(store, nullptr);
    RaceOnePool(store.get(), 8);
  }
}

// On a disk store every handle owns its decoded page, and the pool keeps
// at most `capacity` of them: the decoded pages still alive never exceed
// the capacity plus the handles the reader holds. A held handle keeps its
// page readable after the pool evicted it.
TEST(BufferPoolTest, DiskPagesAliveNeverExceedCapacityPlusHeldHandles) {
  TempDir dir;
  std::unique_ptr<DiskPageStore> store =
      MakeDiskStore(dir.File("bound.pages"), 64);
  ASSERT_NE(store, nullptr);
  BufferPool pool(store.get(), 4);

  std::vector<std::weak_ptr<const Page>> seen;
  std::vector<std::shared_ptr<const Page>> held;
  // Distinct decoded pages still alive (a hit hands out a page seen before).
  auto alive = [&seen] {
    std::set<const Page*> pages;
    for (const auto& weak : seen) {
      if (std::shared_ptr<const Page> page = weak.lock()) {
        pages.insert(page.get());
      }
    }
    return pages.size();
  };
  uint64_t x = 7;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const PageId id = static_cast<PageId>((x >> 33) % 64);
    auto page = pool.Fetch(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    seen.push_back(*page);
    if (i % 100 == 0) held.push_back(*page);
    ASSERT_LE(alive(), pool.capacity() + held.size()) << "after fetch " << i;
  }
  EXPECT_GT(pool.Counters().evictions, held.size());
  for (const auto& page : held) {
    EXPECT_TRUE(IsPage(*page, page->id));
  }

  // Every page the pool holds came from a Fetch above, so once the reader
  // drops its handles exactly the cached pages stay alive, and none after
  // EvictAll.
  held.clear();
  EXPECT_EQ(alive(), pool.NumCached());
  pool.EvictAll();
  EXPECT_EQ(alive(), 0u);
}

// An in-memory store's handles alias its pages, which keep their addresses
// while the store grows: a page cached before a thousand more Allocates
// still reads its elements on a hit.
TEST(BufferPoolTest, MemoryPageHitSurvivesLaterAllocates) {
  PageStore store;
  Fill(&store, 1);
  BufferPool pool(&store, 4);
  auto miss = pool.Fetch(0);
  ASSERT_TRUE(miss.ok());
  for (int i = 0; i < 1000; ++i) store.Allocate();
  auto hit = pool.Fetch(0);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(pool.Counters().hits, 1u);
  EXPECT_EQ(hit->get(), miss->get());
  EXPECT_TRUE(IsPage(**hit, 0));
}

// Every pool miss on a disk store reads the device: a page whose image is
// damaged on disk after its first read fails its next miss with
// Corruption instead of being served from a copy the store kept.
TEST(BufferPoolTest, DiskMissAfterOnDiskDamageIsCorruption) {
  TempDir dir;
  const std::string path = dir.File("damaged.pages");
  std::unique_ptr<DiskPageStore> store = MakeDiskStore(path, 2);
  ASSERT_NE(store, nullptr);
  BufferPool pool(store.get(), 1);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());  // evicts 0
  ASSERT_FALSE(pool.Contains(0));

  // Overwrite page 0's magic in place.
  const PageFile& file = store->page_file();
  const uint64_t offset =
      static_cast<uint64_t>(file.directory().at(0).first_block) *
      file.block_bytes();
  {
    std::fstream out(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out.seekp(static_cast<std::streamoff>(offset));
    out.write("XXXX", 4);
    ASSERT_TRUE(out.good());
  }
  const uint64_t reads = file.read_calls();
  auto again = pool.Fetch(0);
  EXPECT_TRUE(again.status().IsCorruption()) << again.status().ToString();
  EXPECT_EQ(file.read_calls(), reads + 1);
  // The failed miss leaves the cache as it was.
  EXPECT_EQ(pool.NumCached(), 1u);
  EXPECT_TRUE(pool.Contains(1));
}

}  // namespace
}  // namespace storage
}  // namespace neurodb
