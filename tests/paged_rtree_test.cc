#include "rtree/paged_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/sim_clock.h"

namespace neurodb {
namespace rtree {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::Vec3;

ElementVec RandomElements(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(0, 100)),
           static_cast<float>(rng.Uniform(0, 100)),
           static_cast<float>(rng.Uniform(0, 100)));
    out.emplace_back(i, Aabb::Cube(c, 1.5f));
  }
  return out;
}

TEST(PagedRTreeTest, BuildAllocatesOnePagePerNode) {
  ElementVec elements = RandomElements(1000, 1);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  size_t nodes = tree->NumNodes();

  storage::PageStore store;
  auto paged = PagedRTree::Build(std::move(tree).value(), &store);
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(paged->NumPages(), nodes);
  EXPECT_EQ(store.NumPages(), nodes);
}

TEST(PagedRTreeTest, NullStoreFails) {
  auto tree = RTree::BulkLoadStr(RandomElements(10, 2));
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(PagedRTree::Build(std::move(tree).value(), nullptr).ok());
}

TEST(PagedRTreeTest, QueryMatchesInMemoryTree) {
  ElementVec elements = RandomElements(2000, 3);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(std::move(tree).value(), &store);
  ASSERT_TRUE(paged.ok());

  storage::BufferPool pool(&store, 10000);
  Pcg32 rng(4);
  for (int q = 0; q < 30; ++q) {
    Aabb box = Aabb::Cube(Vec3(static_cast<float>(rng.Uniform(0, 100)),
                               static_cast<float>(rng.Uniform(0, 100)),
                               static_cast<float>(rng.Uniform(0, 100))),
                          static_cast<float>(rng.Uniform(2, 30)));
    std::vector<ElementId> via_pages;
    ASSERT_TRUE(paged->RangeQuery(box, &via_pages, &pool).ok());
    std::vector<ElementId> via_memory;
    paged->tree().RangeQuery(box, &via_memory);
    std::sort(via_pages.begin(), via_pages.end());
    std::sort(via_memory.begin(), via_memory.end());
    ASSERT_EQ(via_pages, via_memory);
  }
}

TEST(PagedRTreeTest, ColdQueryChargesOnePageFetchPerVisitedNode) {
  ElementVec elements = RandomElements(3000, 5);
  RTreeOptions options;
  options.max_entries = 16;
  options.min_entries = 6;
  auto tree = RTree::BulkLoadStr(elements, options);
  ASSERT_TRUE(tree.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(std::move(tree).value(), &store);
  ASSERT_TRUE(paged.ok());

  SimClock clock;
  storage::DiskCostModel cost;
  cost.page_read_micros = 100;
  cost.page_hit_micros = 0;
  storage::BufferPool pool(&store, 10000, &clock, cost);

  QueryStats stats;
  std::vector<ElementId> out;
  ASSERT_TRUE(paged
                  ->RangeQuery(Aabb::Cube(Vec3(50, 50, 50), 30), &out, &pool,
                               &stats)
                  .ok());
  // Cold cache: every visited node was a miss, charged to the query.
  EXPECT_EQ(pool.Counters().misses, stats.nodes_visited);
  EXPECT_EQ(stats.pool, (storage::PoolCounters{0, stats.nodes_visited, 0}));
  EXPECT_EQ(clock.NowMicros(), stats.nodes_visited * 100);

  // Repeating the same query hits the pool for every node.
  QueryStats stats2;
  std::vector<ElementId> out2;
  ASSERT_TRUE(paged
                  ->RangeQuery(Aabb::Cube(Vec3(50, 50, 50), 30), &out2, &pool,
                               &stats2)
                  .ok());
  EXPECT_EQ(pool.Counters().misses, stats.nodes_visited);
  EXPECT_EQ(pool.Counters().hits, stats2.nodes_visited);
  EXPECT_EQ(stats2.pool, (storage::PoolCounters{stats2.nodes_visited, 0, 0}));
}

TEST(PagedRTreeTest, NullPoolFails) {
  auto tree = RTree::BulkLoadStr(RandomElements(10, 6));
  ASSERT_TRUE(tree.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(std::move(tree).value(), &store);
  ASSERT_TRUE(paged.ok());
  std::vector<ElementId> out;
  EXPECT_FALSE(
      paged->RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 1), &out, nullptr).ok());
}

TEST(PagedRTreeTest, EmptyTreeQueriesAreNoOps) {
  auto tree = RTree::BulkLoadStr({});
  ASSERT_TRUE(tree.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(std::move(tree).value(), &store);
  ASSERT_TRUE(paged.ok());
  storage::BufferPool pool(&store, 10);
  std::vector<ElementId> out;
  ASSERT_TRUE(
      paged->RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 5), &out, &pool).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace rtree
}  // namespace neurodb
