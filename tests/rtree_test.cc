#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace neurodb {
namespace rtree {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;

ElementVec RandomElements(size_t n, uint64_t seed, float domain = 100.0f) {
  Pcg32 rng(seed);
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(0, domain)),
           static_cast<float>(rng.Uniform(0, domain)),
           static_cast<float>(rng.Uniform(0, domain)));
    out.emplace_back(i, Aabb::Cube(c, static_cast<float>(rng.Uniform(0.5, 2))));
  }
  return out;
}

// BrowseKnn over a tree whose entries are the elements themselves: each
// scanned entry offers itself, and `keys` records the scan order's keys.
std::vector<geom::KnnHit> Browse(const RTree& tree, const Vec3& p, size_t k,
                                 std::vector<double>* keys) {
  std::vector<geom::KnnHit> hits;
  Status status = tree.BrowseKnn(
      p, k,
      [&](const SpatialElement& entry, geom::KnnAccumulator* acc) {
        double key = geom::KnnDistance(p, entry.bounds);
        keys->push_back(key);
        acc->Offer(entry.id, key);
        return Status::OK();
      },
      &hits);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return hits;
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

TEST(RTreeOptionsTest, ValidationRules) {
  RTreeOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  RTreeOptions too_small;
  too_small.max_entries = 2;
  EXPECT_FALSE(too_small.Validate().ok());
  RTreeOptions bad_min;
  bad_min.max_entries = 10;
  bad_min.min_entries = 6;  // > max/2
  EXPECT_FALSE(bad_min.Validate().ok());
  RTreeOptions leaf;
  leaf.leaf_capacity = 128;
  EXPECT_TRUE(leaf.Validate().ok());
  EXPECT_EQ(leaf.LeafCapacity(), 128u);
  EXPECT_EQ(ok.LeafCapacity(), ok.max_entries);
}

TEST(RTreeTest, EmptyTreeBehaves) {
  RTree tree{RTreeOptions{}};
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0);
  std::vector<ElementId> out;
  tree.RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 10), &out);
  EXPECT_TRUE(out.empty());
  SpatialElement e;
  EXPECT_FALSE(tree.FindAny(Aabb::Cube(Vec3(0, 0, 0), 10), &e));
  std::vector<double> keys;
  EXPECT_TRUE(Browse(tree, Vec3(0, 0, 0), 3, &keys).empty());
  EXPECT_TRUE(keys.empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, BulkLoadStrMatchesBruteForce) {
  ElementVec elements = RandomElements(2000, 5);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), elements.size());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  Pcg32 rng(6);
  for (int q = 0; q < 50; ++q) {
    Aabb box = Aabb::Cube(Vec3(static_cast<float>(rng.Uniform(0, 100)),
                               static_cast<float>(rng.Uniform(0, 100)),
                               static_cast<float>(rng.Uniform(0, 100))),
                          static_cast<float>(rng.Uniform(1, 30)));
    std::vector<ElementId> got;
    tree->RangeQuery(box, &got);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForce(elements, box));
  }
}

TEST(RTreeTest, BulkLoadHilbertMatchesBruteForce) {
  ElementVec elements = RandomElements(1500, 15);
  auto tree = RTree::BulkLoadHilbert(elements);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  Aabb box = Aabb::Cube(Vec3(50, 50, 50), 25);
  std::vector<ElementId> got;
  tree->RangeQuery(box, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForce(elements, box));
}

TEST(RTreeTest, BulkLoadEmptyAndSingle) {
  auto empty = RTree::BulkLoadStr({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(empty->CheckInvariants().ok());

  ElementVec one = RandomElements(1, 3);
  auto single = RTree::BulkLoadStr(one);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->size(), 1u);
  EXPECT_EQ(single->Height(), 1);
  EXPECT_TRUE(single->CheckInvariants().ok());
}

TEST(RTreeTest, InsertRejectsEmptyBounds) {
  RTree tree{RTreeOptions{}};
  SpatialElement bad;
  EXPECT_TRUE(tree.Insert(bad).IsInvalidArgument());
}

TEST(RTreeTest, FindAnyReturnsIntersectingElement) {
  ElementVec elements = RandomElements(500, 21);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  Aabb box = Aabb::Cube(elements[123].bounds.Center(), 3.0f);
  SpatialElement found;
  QueryStats stats;
  ASSERT_TRUE(tree->FindAny(box, &found, &stats));
  EXPECT_TRUE(found.bounds.Intersects(box));
  EXPECT_GT(stats.nodes_visited, 0u);
  // A query far outside the domain finds nothing.
  EXPECT_FALSE(tree->FindAny(Aabb::Cube(Vec3(1e6f, 1e6f, 1e6f), 1), &found));
}

TEST(RTreeTest, BrowseKnnMatchesBruteForce) {
  ElementVec elements = RandomElements(800, 33);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  for (const Vec3& p : {Vec3(40, 60, 20), Vec3(-50, 130, 70)}) {
    for (size_t k : {1u, 10u, 100u}) {
      std::vector<double> keys;
      std::vector<geom::KnnHit> got = Browse(*tree, p, k, &keys);
      std::vector<geom::KnnHit> truth = geom::BruteForceKnn(elements, p, k);
      EXPECT_EQ(got, truth) << "k=" << k;
      // Entries are scanned in ascending key order, and exactly those
      // within the k-th distance are scanned.
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << "k=" << k;
      size_t within = 0;
      for (const auto& e : elements) {
        if (geom::KnnDistance(p, e.bounds) <= truth.back().distance) ++within;
      }
      EXPECT_EQ(keys.size(), within) << "k=" << k;
    }
  }
}

TEST(RTreeTest, BrowseKnnWithKLargerThanTreeOrZero) {
  ElementVec elements = RandomElements(5, 77);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  std::vector<double> keys;
  EXPECT_EQ(Browse(*tree, Vec3(0, 0, 0), 50, &keys),
            geom::BruteForceKnn(elements, Vec3(0, 0, 0), 50));
  EXPECT_EQ(keys.size(), 5u);
  keys.clear();
  EXPECT_TRUE(Browse(*tree, Vec3(0, 0, 0), 0, &keys).empty());
  EXPECT_TRUE(keys.empty());
}

TEST(RTreeTest, BrowseKnnStopsOnScanError) {
  ElementVec elements = RandomElements(300, 41);
  auto tree = RTree::BulkLoadStr(elements);
  ASSERT_TRUE(tree.ok());
  size_t scans = 0;
  std::vector<geom::KnnHit> hits{{7, 7.0}};
  Status status = tree->BrowseKnn(
      Vec3(50, 50, 50), 20,
      [&](const SpatialElement&, geom::KnnAccumulator*) {
        return ++scans == 3 ? Status::IOError("page read failed")
                            : Status::OK();
      },
      &hits);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(scans, 3u);
}

TEST(RTreeTest, QueryStatsCountPerLevel) {
  ElementVec elements = RandomElements(5000, 9);
  RTreeOptions options;
  options.max_entries = 16;
  options.min_entries = 6;
  auto tree = RTree::BulkLoadStr(elements, options);
  ASSERT_TRUE(tree.ok());
  QueryStats stats;
  std::vector<ElementId> out;
  tree->RangeQuery(Aabb::Cube(Vec3(50, 50, 50), 40), &out, &stats);
  ASSERT_EQ(stats.nodes_per_level.size(),
            static_cast<size_t>(tree->Height()));
  uint64_t sum = 0;
  for (uint64_t c : stats.nodes_per_level) sum += c;
  EXPECT_EQ(sum, stats.nodes_visited);
  // Exactly one root visit.
  EXPECT_EQ(stats.nodes_per_level.back(), 1u);
  EXPECT_EQ(stats.results, out.size());
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  auto small = RTree::BulkLoadStr(RandomElements(8, 1), options);
  auto large = RTree::BulkLoadStr(RandomElements(4096, 1), options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(small->Height(), 1);
  EXPECT_GE(large->Height(), 4);  // 8^4 = 4096
  EXPECT_LE(large->Height(), 6);
}

TEST(RTreeTest, MemoryBytesIsPositiveAndGrows) {
  auto small = RTree::BulkLoadStr(RandomElements(100, 2));
  auto large = RTree::BulkLoadStr(RandomElements(10000, 2));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(small->MemoryBytes(), 0u);
  EXPECT_GT(large->MemoryBytes(), small->MemoryBytes());
}

TEST(RTreeTest, LeafCapacityIsRespectedByBulkLoad) {
  RTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  options.leaf_capacity = 100;
  auto tree = RTree::BulkLoadStr(RandomElements(1000, 4), options);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->CheckInvariants().ok());
  // With 100-entry leaves, 1000 elements need only 10 leaves.
  size_t leaves = 0;
  for (size_t i = 0; i < tree->NumNodes(); ++i) {
    if (tree->node(static_cast<int32_t>(i)).IsLeaf()) ++leaves;
  }
  EXPECT_EQ(leaves, 10u);
}

}  // namespace
}  // namespace rtree
}  // namespace neurodb
