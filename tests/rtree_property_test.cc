// Property tests: across seeds, dataset shapes and leaf capacities (the
// default, and a wide TOUCH-like leaf under a narrow fanout), the
// STR-packed R-tree must (a) satisfy its structural invariants and (b)
// answer range queries and seed lookups exactly like brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "rtree/rtree.h"

namespace neurodb {
namespace rtree {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::Vec3;

enum class DataShape { kUniform, kClustered, kSkewedLine };

std::string DataShapeName(DataShape s) {
  switch (s) {
    case DataShape::kUniform:
      return "Uniform";
    case DataShape::kClustered:
      return "Clustered";
    case DataShape::kSkewedLine:
      return "SkewedLine";
  }
  return "Unknown";
}

ElementVec MakeData(DataShape shape, size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  ElementVec out;
  switch (shape) {
    case DataShape::kUniform:
      for (size_t i = 0; i < n; ++i) {
        Vec3 c(static_cast<float>(rng.Uniform(0, 100)),
               static_cast<float>(rng.Uniform(0, 100)),
               static_cast<float>(rng.Uniform(0, 100)));
        out.emplace_back(i, Aabb::Cube(c, static_cast<float>(rng.Uniform(0.2, 3))));
      }
      break;
    case DataShape::kClustered: {
      const int kClusters = 8;
      std::vector<Vec3> centers;
      for (int c = 0; c < kClusters; ++c) {
        centers.emplace_back(static_cast<float>(rng.Uniform(10, 90)),
                             static_cast<float>(rng.Uniform(10, 90)),
                             static_cast<float>(rng.Uniform(10, 90)));
      }
      for (size_t i = 0; i < n; ++i) {
        const Vec3& c = centers[rng.NextBounded(kClusters)];
        Vec3 p(c.x + static_cast<float>(rng.Gaussian(0, 3)),
               c.y + static_cast<float>(rng.Gaussian(0, 3)),
               c.z + static_cast<float>(rng.Gaussian(0, 3)));
        out.emplace_back(i, Aabb::Cube(p, 1.0f));
      }
      break;
    }
    case DataShape::kSkewedLine:
      // Elongated boxes along a diagonal: high-overlap adversarial case.
      for (size_t i = 0; i < n; ++i) {
        float t = static_cast<float>(rng.Uniform(0, 100));
        Vec3 a(t, t, t);
        Vec3 b(t + static_cast<float>(rng.Uniform(1, 10)),
               t + static_cast<float>(rng.Uniform(0.1, 1)),
               t + static_cast<float>(rng.Uniform(0.1, 1)));
        out.emplace_back(i, Aabb(a, b));
      }
      break;
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

// (shape, seed, leaf_capacity); leaf_capacity 0 means max_entries.
using Param = std::tuple<DataShape, uint64_t, size_t>;

RTreeOptions OptionsFor(size_t leaf_capacity) {
  RTreeOptions options;
  options.max_entries = 12;
  options.leaf_capacity = leaf_capacity;
  return options;
}

class RTreeEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(RTreeEquivalenceTest, InvariantsHoldAndQueriesMatchBruteForce) {
  auto [shape, seed, leaf_capacity] = GetParam();
  const size_t n = 900;
  ElementVec elements = MakeData(shape, n, seed);
  auto built = RTree::BulkLoadStr(elements, OptionsFor(leaf_capacity));
  ASSERT_TRUE(built.ok());
  const RTree& tree = *built;

  ASSERT_EQ(tree.size(), n);
  Status invariants = tree.CheckInvariants();
  ASSERT_TRUE(invariants.ok()) << invariants.ToString();

  Pcg32 rng(seed ^ 0xfeed);
  for (int q = 0; q < 30; ++q) {
    Aabb box = Aabb::Cube(Vec3(static_cast<float>(rng.Uniform(-10, 110)),
                               static_cast<float>(rng.Uniform(-10, 110)),
                               static_cast<float>(rng.Uniform(-10, 110))),
                          static_cast<float>(rng.Uniform(0.5, 40)));
    std::vector<ElementId> got;
    tree.RangeQuery(box, &got);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForce(elements, box))
        << DataShapeName(shape) << " leaf " << leaf_capacity << " query "
        << q;
  }
}

TEST_P(RTreeEquivalenceTest, FindAnySucceedsIffRangeNonEmpty) {
  auto [shape, seed, leaf_capacity] = GetParam();
  ElementVec elements = MakeData(shape, 700, seed);
  auto tree = RTree::BulkLoadStr(elements, OptionsFor(leaf_capacity));
  ASSERT_TRUE(tree.ok());
  Pcg32 rng(seed ^ 0xabcd);
  for (int q = 0; q < 40; ++q) {
    Aabb box = Aabb::Cube(Vec3(static_cast<float>(rng.Uniform(-20, 120)),
                               static_cast<float>(rng.Uniform(-20, 120)),
                               static_cast<float>(rng.Uniform(-20, 120))),
                          static_cast<float>(rng.Uniform(0.5, 25)));
    geom::SpatialElement found;
    bool any = tree->FindAny(box, &found);
    bool expect = !BruteForce(elements, box).empty();
    ASSERT_EQ(any, expect);
    if (any) {
      ASSERT_TRUE(found.bounds.Intersects(box));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeEquivalenceTest,
    ::testing::Combine(::testing::Values(DataShape::kUniform,
                                         DataShape::kClustered,
                                         DataShape::kSkewedLine),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(size_t{0}, size_t{64})),
    [](const auto& info) {
      const size_t leaf = std::get<2>(info.param);
      return DataShapeName(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param)) +
             (leaf == 0 ? std::string("DefaultLeaf")
                        : "Leaf" + std::to_string(leaf));
    });

}  // namespace
}  // namespace rtree
}  // namespace neurodb
