#include "flat/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "neuro/workload.h"

namespace neurodb {
namespace flat {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::Vec3;

ElementVec UniformData(size_t n, uint64_t seed, float domain = 100.0f) {
  Pcg32 rng(seed);
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(0, domain)),
           static_cast<float>(rng.Uniform(0, domain)),
           static_cast<float>(rng.Uniform(0, domain)));
    out.emplace_back(i, Aabb::Cube(c, 2.0f));
  }
  return out;
}

std::vector<ElementId> BruteForce(const ElementVec& elements,
                                  const Aabb& box) {
  std::vector<ElementId> out;
  for (const auto& e : elements) {
    if (e.bounds.Intersects(box)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FlatIndexTest, BuildValidatesArguments) {
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 0;
  EXPECT_FALSE(FlatIndex::Build(UniformData(10, 1), &store, options).ok());
  EXPECT_FALSE(FlatIndex::Build(UniformData(10, 1), nullptr).ok());
}

TEST(FlatIndexTest, EmptyDatasetQueriesCleanly) {
  storage::PageStore store;
  auto index = FlatIndex::Build({}, &store);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->NumPages(), 0u);
  storage::BufferPool pool(&store, 16);
  std::vector<ElementId> out;
  EXPECT_TRUE(
      index->RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 5), &pool, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(FlatIndexTest, InvariantsHoldAfterBuild) {
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 32;
  auto index = FlatIndex::Build(UniformData(2000, 3), &store, options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->CheckInvariants().ok())
      << index->CheckInvariants().ToString();
  EXPECT_EQ(index->NumPages(), (2000 + 31) / 32);
  EXPECT_GT(index->MetadataBytes(), 0u);
}

TEST(FlatIndexTest, QueryMatchesBruteForce) {
  ElementVec elements = UniformData(3000, 5);
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 64;
  auto index = FlatIndex::Build(elements, &store, options);
  ASSERT_TRUE(index.ok());
  storage::BufferPool pool(&store, 10000);
  Pcg32 rng(6);
  for (int q = 0; q < 40; ++q) {
    Aabb box = Aabb::Cube(Vec3(static_cast<float>(rng.Uniform(0, 100)),
                               static_cast<float>(rng.Uniform(0, 100)),
                               static_cast<float>(rng.Uniform(0, 100))),
                          static_cast<float>(rng.Uniform(1, 30)));
    std::vector<ElementId> got;
    ASSERT_TRUE(index->RangeQuery(box, &pool, &got).ok());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForce(elements, box)) << "query " << q;
  }
}

TEST(FlatIndexTest, StatsAccountPagesAndResults) {
  ElementVec elements = UniformData(2000, 7);
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 50;
  auto index = FlatIndex::Build(elements, &store, options);
  ASSERT_TRUE(index.ok());
  storage::BufferPool pool(&store, 10000);

  Aabb box = Aabb::Cube(Vec3(50, 50, 50), 30);
  FlatQueryStats stats;
  std::vector<ElementId> got;
  ASSERT_TRUE(index->RangeQuery(box, &pool, &got, &stats).ok());
  EXPECT_EQ(stats.results, got.size());
  EXPECT_EQ(stats.data_pages_read, stats.crawl_steps);
  EXPECT_GT(stats.seed_nodes_visited, 0u);
  // Each read page was scanned fully.
  EXPECT_GE(stats.elements_scanned, got.size());
  // Pages read equals the number of distinct pages intersecting the range
  // (crawl + rescue reads each exactly once).
  EXPECT_EQ(stats.data_pages_read, index->PagesInRange(box).size());
}

TEST(FlatIndexTest, CrawlReadsEachPageOnce) {
  ElementVec elements = UniformData(1500, 9);
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 40;
  auto index = FlatIndex::Build(elements, &store, options);
  ASSERT_TRUE(index.ok());
  storage::BufferPool pool(&store, 10000);
  std::vector<uint32_t> order;
  std::vector<ElementId> got;
  FlatQueryStats stats;
  ASSERT_TRUE(index
                  ->RangeQueryTraced(Aabb::Cube(Vec3(50, 50, 50), 40), &pool,
                                     &got, &order, &stats)
                  .ok());
  std::vector<uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "a page was crawled twice";
  EXPECT_EQ(order.size(), stats.data_pages_read);
}

TEST(FlatIndexTest, CrawlOrderIsNeighborConnected) {
  // On dense data with no rescue, consecutive crawl visits expand a
  // connected region: every visited page (after the seed) neighbors some
  // earlier-visited page.
  ElementVec elements = UniformData(4000, 11);
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 64;
  options.rescue = false;
  auto index = FlatIndex::Build(elements, &store, options);
  ASSERT_TRUE(index.ok());
  storage::BufferPool pool(&store, 10000);
  std::vector<uint32_t> order;
  std::vector<ElementId> got;
  ASSERT_TRUE(index
                  ->RangeQueryTraced(Aabb::Cube(Vec3(50, 50, 50), 35), &pool,
                                     &got, &order, nullptr)
                  .ok());
  ASSERT_GT(order.size(), 2u);
  for (size_t k = 1; k < order.size(); ++k) {
    bool connected = false;
    const auto& neighbors = index->NeighborsOf(order[k]);
    for (size_t j = 0; j < k && !connected; ++j) {
      connected = std::binary_search(neighbors.begin(), neighbors.end(),
                                     order[j]);
    }
    ASSERT_TRUE(connected) << "crawl step " << k << " not connected";
  }
}

TEST(FlatIndexTest, RescueCompletesDisconnectedRanges) {
  // Two far-apart dense blobs, each filling whole pages exactly (input
  // pack order, 32 per page): a query covering both has a disconnected
  // in-range page graph. Crawl-only finds one blob; rescue finds both.
  ElementVec elements;
  Pcg32 rng(13);
  for (size_t i = 0; i < 384; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(0, 10)),
           static_cast<float>(rng.Uniform(0, 10)),
           static_cast<float>(rng.Uniform(0, 10)));
    elements.emplace_back(i, Aabb::Cube(c, 1.0f));
  }
  for (size_t i = 384; i < 768; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(90, 100)),
           static_cast<float>(rng.Uniform(90, 100)),
           static_cast<float>(rng.Uniform(90, 100)));
    elements.emplace_back(i, Aabb::Cube(c, 1.0f));
  }
  Aabb both(Vec3(-5, -5, -5), Vec3(105, 105, 105));

  storage::PageStore store_rescue;
  FlatOptions with_rescue;
  with_rescue.elems_per_page = 32;
  with_rescue.pack = storage::PackOrder::kInput;
  with_rescue.rescue = true;
  auto rescue_index = FlatIndex::Build(elements, &store_rescue, with_rescue);
  ASSERT_TRUE(rescue_index.ok());
  storage::BufferPool pool(&store_rescue, 10000);
  std::vector<ElementId> got;
  FlatQueryStats stats;
  ASSERT_TRUE(rescue_index->RangeQuery(both, &pool, &got, &stats).ok());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForce(elements, both));
  EXPECT_GT(stats.extra_seeds, 0u) << "rescue should have re-seeded";

  // Crawl-only on the same data misses the far blob.
  storage::PageStore store_plain;
  FlatOptions no_rescue = with_rescue;
  no_rescue.rescue = false;
  auto plain_index = FlatIndex::Build(elements, &store_plain, no_rescue);
  ASSERT_TRUE(plain_index.ok());
  storage::BufferPool pool2(&store_plain, 10000);
  std::vector<ElementId> partial;
  ASSERT_TRUE(plain_index->RangeQuery(both, &pool2, &partial).ok());
  EXPECT_LT(partial.size(), got.size());
  EXPECT_EQ(partial.size(), 384u);  // exactly one blob
}

TEST(FlatIndexTest, PagesInRangeMatchesPageBounds) {
  ElementVec elements = UniformData(1000, 15);
  storage::PageStore store;
  auto index = FlatIndex::Build(elements, &store);
  ASSERT_TRUE(index.ok());
  Aabb box = Aabb::Cube(Vec3(30, 30, 30), 25);
  auto pages = index->PagesInRange(box);
  for (uint32_t i = 0; i < index->NumPages(); ++i) {
    bool listed = std::binary_search(pages.begin(), pages.end(), i);
    EXPECT_EQ(listed, index->PageBounds(i).Intersects(box)) << "page " << i;
  }
}

TEST(FlatIndexTest, PagesInRangesMatchesPageBoundsPerBox) {
  // One walk answers many boxes: lists per box, ascending, equal to a scan
  // of the page bounds. Groups of more than 64 boxes take several passes;
  // inverted, NaN, point and whole-domain boxes behave as in a scan.
  ElementVec elements = UniformData(20000, 21);
  storage::PageStore store;
  FlatOptions options;
  options.elems_per_page = 16;  // 1,250 pages: a seed tree two levels deep
  auto index = FlatIndex::Build(elements, &store, options);
  ASSERT_TRUE(index.ok());
  ASSERT_GT(index->seed_tree().Height(), 1);
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  Pcg32 rng(5);
  std::vector<Aabb> boxes;
  for (int i = 0; i < 150; ++i) {
    const Vec3 c(static_cast<float>(rng.Uniform(-20, 120)),
                 static_cast<float>(rng.Uniform(-20, 120)),
                 static_cast<float>(rng.Uniform(-20, 120)));
    boxes.push_back(Aabb::Cube(c, static_cast<float>(rng.Uniform(0, 40))));
  }
  boxes[7] = Aabb(Vec3(60, 10, 10), Vec3(40, 90, 90));  // inverted in x
  boxes[70] = Aabb(Vec3(kNaN, 0, 0), Vec3(50, 50, 50));
  boxes[71] = Aabb::FromPoint(Vec3(50, 50, 50));
  boxes[140] = Aabb(Vec3(-1e9f, -1e9f, -1e9f), Vec3(1e9f, 1e9f, 1e9f));
  for (size_t count : {size_t{0}, size_t{1}, size_t{64}, size_t{65},
                       boxes.size()}) {
    std::vector<std::vector<uint32_t>> pages(3, std::vector<uint32_t>{9});
    index->PagesInRanges(std::span<const Aabb>(boxes).first(count), &pages);
    ASSERT_EQ(pages.size(), count);
    for (size_t b = 0; b < count; ++b) {
      std::vector<uint32_t> want;
      for (uint32_t i = 0; i < index->NumPages(); ++i) {
        if (index->PageBounds(i).Intersects(boxes[b])) want.push_back(i);
      }
      EXPECT_EQ(pages[b], want) << count << " boxes, box " << b;
      EXPECT_EQ(index->PagesInRange(boxes[b]), want) << "box " << b;
    }
  }
}

TEST(FlatIndexTest, QueryChargesOnlyDataPages) {
  // The modeled time of a FLAT query is data pages * read cost; the seed
  // structure is memory resident and charges nothing.
  ElementVec elements = UniformData(2000, 17);
  storage::PageStore store;
  auto index = FlatIndex::Build(elements, &store);
  ASSERT_TRUE(index.ok());
  SimClock clock;
  storage::DiskCostModel cost;
  cost.page_read_micros = 250;
  cost.page_hit_micros = 0;
  storage::BufferPool pool(&store, 10000, &clock, cost);
  FlatQueryStats stats;
  std::vector<ElementId> got;
  ASSERT_TRUE(index
                  ->RangeQuery(Aabb::Cube(Vec3(50, 50, 50), 30), &pool, &got,
                               &stats)
                  .ok());
  EXPECT_EQ(clock.NowMicros(), stats.data_pages_read * 250);
}

TEST(FlatIndexTest, NullArgumentsAreRejected) {
  storage::PageStore store;
  auto index = FlatIndex::Build(UniformData(50, 19), &store);
  ASSERT_TRUE(index.ok());
  std::vector<ElementId> out;
  storage::BufferPool pool(&store, 16);
  EXPECT_FALSE(
      index->RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 5), nullptr, &out).ok());
  EXPECT_FALSE(
      index->RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 5), &pool, nullptr).ok());
}

}  // namespace
}  // namespace flat
}  // namespace neurodb
