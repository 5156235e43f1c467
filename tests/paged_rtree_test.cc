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
  auto paged = PagedRTree::Build(*tree, &store);
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(paged->NumPages(), nodes);
  EXPECT_EQ(store.NumPages(), nodes);
}

TEST(PagedRTreeTest, NullStoreFails) {
  auto tree = RTree::BulkLoadStr(RandomElements(10, 2));
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(PagedRTree::Build(*tree, nullptr).ok());
}

// The paged walk reads every node from its page and carries the node's level
// down from the root; a second in-memory tree packed from the same elements
// is the reference for what it must visit.
TEST(PagedRTreeTest, QueryMatchesInMemoryTree) {
  ElementVec elements = RandomElements(2000, 3);
  RTreeOptions options;
  options.max_entries = 8;  // four levels over 2000 elements
  auto built = RTree::BulkLoadStr(elements, options);
  ASSERT_TRUE(built.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(*built, &store);
  ASSERT_TRUE(paged.ok());
  *built = RTree();  // drop the packed tree: the paged one keeps no link
  auto reference = RTree::BulkLoadStr(elements, options);
  ASSERT_TRUE(reference.ok());
  ASSERT_GE(reference->Height(), 4);

  EXPECT_EQ(paged->size(), reference->size());
  EXPECT_EQ(paged->Height(), reference->Height());
  EXPECT_EQ(paged->NumPages(), reference->NumNodes());
  std::vector<LevelStats> want = reference->LevelProfile();
  ASSERT_EQ(paged->LevelProfile().size(), want.size());
  for (size_t l = 0; l < want.size(); ++l) {
    const LevelStats& got = paged->LevelProfile()[l];
    EXPECT_EQ(got.nodes, want[l].nodes) << "level " << l;
    EXPECT_EQ(got.entries, want[l].entries) << "level " << l;
    EXPECT_EQ(got.capacity, want[l].capacity) << "level " << l;
    EXPECT_EQ(got.total_volume, want[l].total_volume) << "level " << l;
    EXPECT_EQ(got.overlap_volume, want[l].overlap_volume) << "level " << l;
  }

  // A pool smaller than the tree, so the walks miss and evict as well.
  storage::BufferPool pool(&store, 16);
  Pcg32 rng(4);
  for (int q = 0; q < 60; ++q) {
    Aabb box = Aabb::Cube(Vec3(static_cast<float>(rng.Uniform(-10, 110)),
                               static_cast<float>(rng.Uniform(-10, 110)),
                               static_cast<float>(rng.Uniform(-10, 110))),
                          static_cast<float>(rng.Uniform(1, 40)));
    QueryStats via_pages;
    std::vector<ElementId> page_ids;
    ASSERT_TRUE(paged->RangeQuery(box, &page_ids, &pool, &via_pages).ok());
    QueryStats via_memory;
    std::vector<ElementId> memory_ids;
    reference->RangeQuery(box, &memory_ids, &via_memory);
    ASSERT_EQ(page_ids, memory_ids) << "query " << q;
    ASSERT_EQ(via_pages.nodes_per_level, via_memory.nodes_per_level)
        << "query " << q;
    ASSERT_EQ(via_pages.entries_tested, via_memory.entries_tested)
        << "query " << q;
    ASSERT_EQ(via_pages.nodes_visited, via_pages.pool.accesses());

    const Vec3 p(static_cast<float>(rng.Uniform(-10, 110)),
                 static_cast<float>(rng.Uniform(-10, 110)),
                 static_cast<float>(rng.Uniform(-10, 110)));
    const size_t k = 1 + rng.NextBounded(40);
    QueryStats knn_stats;
    std::vector<geom::KnnHit> hits;
    ASSERT_TRUE(paged->Knn(p, k, &pool, &hits, &knn_stats).ok());
    ASSERT_EQ(hits, geom::BruteForceKnn(elements, p, k)) << "query " << q;
    ASSERT_EQ(knn_stats.nodes_visited, knn_stats.pool.accesses());
    ASSERT_EQ(knn_stats.nodes_per_level.size(),
              static_cast<size_t>(reference->Height()));
    ASSERT_EQ(knn_stats.nodes_per_level.back(), 1u);  // the root, once
  }
}

TEST(PagedRTreeTest, ColdQueryChargesOnePageFetchPerVisitedNode) {
  ElementVec elements = RandomElements(3000, 5);
  RTreeOptions options;
  options.max_entries = 16;
  auto tree = RTree::BulkLoadStr(elements, options);
  ASSERT_TRUE(tree.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(*tree, &store);
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
  auto paged = PagedRTree::Build(*tree, &store);
  ASSERT_TRUE(paged.ok());
  std::vector<ElementId> out;
  EXPECT_FALSE(
      paged->RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 1), &out, nullptr).ok());
}

TEST(PagedRTreeTest, EmptyTreeQueriesAreNoOps) {
  auto tree = RTree::BulkLoadStr({});
  ASSERT_TRUE(tree.ok());
  storage::PageStore store;
  auto paged = PagedRTree::Build(*tree, &store);
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
