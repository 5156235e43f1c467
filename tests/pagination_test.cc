#include "storage/pagination.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.h"

namespace neurodb {
namespace storage {
namespace {

using geom::Aabb;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;

ElementVec RandomElements(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(0, 100)),
           static_cast<float>(rng.Uniform(0, 100)),
           static_cast<float>(rng.Uniform(0, 100)));
    out.emplace_back(i, Aabb::Cube(c, 1.0f));
  }
  return out;
}

class PaginationOrderTest : public ::testing::TestWithParam<PackOrder> {};

TEST_P(PaginationOrderTest, PreservesEveryElementExactlyOnce) {
  ElementVec elements = RandomElements(500, 42);
  PageStore store;
  auto layout = PaginateElements(elements, &store, 64, GetParam());
  ASSERT_TRUE(layout.ok());
  std::multiset<uint64_t> seen;
  for (PageId id : layout->page_ids) {
    auto page = store.Read(id);
    ASSERT_TRUE(page.ok());
    for (const auto& e : (*page)->elements) seen.insert(e.id);
  }
  EXPECT_EQ(seen.size(), elements.size());
  for (const auto& e : elements) {
    EXPECT_EQ(seen.count(e.id), 1u) << "element " << e.id;
  }
}

TEST_P(PaginationOrderTest, PageBoundsAreTight) {
  ElementVec elements = RandomElements(300, 7);
  PageStore store;
  auto layout = PaginateElements(elements, &store, 50, GetParam());
  ASSERT_TRUE(layout.ok());
  ASSERT_EQ(layout->page_ids.size(), layout->page_bounds.size());
  for (size_t i = 0; i < layout->page_ids.size(); ++i) {
    auto page = store.Read(layout->page_ids[i]);
    ASSERT_TRUE(page.ok());
    Aabb computed;
    for (const auto& e : (*page)->elements) computed.Extend(e.bounds);
    EXPECT_EQ(computed, layout->page_bounds[i]);
  }
}

TEST_P(PaginationOrderTest, RespectsPageCapacity) {
  ElementVec elements = RandomElements(257, 9);
  PageStore store;
  auto layout = PaginateElements(elements, &store, 32, GetParam());
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->page_ids.size(), (257 + 31) / 32);
  for (PageId id : layout->page_ids) {
    auto page = store.Read(id);
    ASSERT_TRUE(page.ok());
    EXPECT_LE((*page)->elements.size(), 32u);
    EXPECT_GE((*page)->elements.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, PaginationOrderTest,
                         ::testing::Values(PackOrder::kHilbert, PackOrder::kStr,
                                           PackOrder::kInput),
                         [](const auto& info) {
                           switch (info.param) {
                             case PackOrder::kHilbert:
                               return "Hilbert";
                             case PackOrder::kStr:
                               return "Str";
                             case PackOrder::kInput:
                               return "Input";
                           }
                           return "Unknown";
                         });

TEST(PaginationTest, EmptyInputYieldsEmptyLayout) {
  PageStore store;
  auto layout = PaginateElements({}, &store, 10, PackOrder::kHilbert);
  ASSERT_TRUE(layout.ok());
  EXPECT_TRUE(layout->page_ids.empty());
  EXPECT_EQ(store.NumPages(), 0u);
}

TEST(PaginationTest, NullStoreAndZeroCapacityFail) {
  ElementVec elements = RandomElements(5, 1);
  PageStore store;
  EXPECT_FALSE(PaginateElements(elements, nullptr, 10, PackOrder::kStr).ok());
  EXPECT_FALSE(PaginateElements(elements, &store, 0, PackOrder::kStr).ok());
}

TEST(PaginationTest, TracksElementPagesWhenAsked) {
  ElementVec elements = RandomElements(100, 3);
  PageStore store;
  auto layout = PaginateElements(elements, &store, 16, PackOrder::kHilbert,
                                 /*track_element_pages=*/true);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->element_pages.size(), elements.size());
  // Every mapping must be consistent with the actual page contents.
  for (const auto& [eid, pid] : layout->element_pages) {
    auto page = store.Read(pid);
    ASSERT_TRUE(page.ok());
    bool found = false;
    for (const auto& e : (*page)->elements) {
      if (e.id == eid) found = true;
    }
    EXPECT_TRUE(found) << "element " << eid << " not on its page";
  }
}

TEST(PaginationTest, HilbertPackingIsSpatiallyCoherent) {
  // Hilbert-packed pages must have far smaller total page volume than
  // input-order pages on shuffled data.
  ElementVec elements = RandomElements(2000, 11);
  PageStore store_h;
  PageStore store_i;
  auto hilbert =
      PaginateElements(elements, &store_h, 64, PackOrder::kHilbert);
  auto input = PaginateElements(elements, &store_i, 64, PackOrder::kInput);
  ASSERT_TRUE(hilbert.ok());
  ASSERT_TRUE(input.ok());
  auto total_volume = [](const Layout& layout) {
    double v = 0;
    for (const auto& b : layout.page_bounds) v += b.Volume();
    return v;
  };
  EXPECT_LT(total_volume(*hilbert) * 5, total_volume(*input));
}

TEST(StrOrderTest, ReturnsAPermutation) {
  ElementVec elements = RandomElements(777, 13);
  auto order = StrOrder(elements, 32);
  ASSERT_EQ(order.size(), elements.size());
  std::vector<uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], i);
  }
}

TEST(StrOrderTest, HandlesEdgeCases) {
  EXPECT_TRUE(StrOrder({}, 10).empty());
  ElementVec one = RandomElements(1, 1);
  EXPECT_EQ(StrOrder(one, 10).size(), 1u);
  ElementVec few = RandomElements(5, 2);
  EXPECT_EQ(StrOrder(few, 0).size(), 5u);  // degenerate group size
}

// StrOrder as first written: three index sorts whose comparator reads each
// element's center from `elements`. StrOrder must return the same
// permutation — the R-tree's leaves and every level above them are cut
// from it.
std::vector<uint32_t> ReferenceStrOrder(const ElementVec& elements,
                                        size_t group_size) {
  const size_t n = elements.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n == 0 || group_size == 0) return order;
  const size_t num_groups = (n + group_size - 1) / group_size;
  const size_t s =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(
                              std::cbrt(static_cast<double>(num_groups)))));
  auto by = [&](int axis) {
    return [&elements, axis](uint32_t a, uint32_t b) {
      return elements[a].bounds.Center()[axis] <
             elements[b].bounds.Center()[axis];
    };
  };
  std::sort(order.begin(), order.end(), by(0));
  const size_t slab = s * s * group_size;
  const size_t run = s * group_size;
  for (size_t x0 = 0; x0 < n; x0 += slab) {
    size_t x1 = std::min(n, x0 + slab);
    std::sort(order.begin() + x0, order.begin() + x1, by(1));
    for (size_t y0 = x0; y0 < x1; y0 += run) {
      std::sort(order.begin() + y0, order.begin() + std::min(x1, y0 + run),
                by(2));
    }
  }
  return order;
}

// A cloud where every third element takes the center of an earlier one,
// with an extent of its own: ties on every axis, which is where a sort that
// compares differently would order differently. Coordinates and half
// extents lie on a quarter-micron grid, so every center is exact.
ElementVec TiedElements(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  auto quarters = [&rng](uint32_t count) {
    return static_cast<float>(rng.NextBounded(count)) * 0.25f;
  };
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(quarters(400), quarters(400), quarters(400));
    if (i % 3 == 2) {
      c = out[rng.NextBounded(static_cast<uint32_t>(out.size()))]
              .bounds.Center();
    }
    const float half = 0.25f + quarters(8);
    out.emplace_back(i, Aabb(c - Vec3(half, half, half),
                             c + Vec3(half, half, half)));
  }
  return out;
}

TEST(StrOrderTest, MatchesReferenceIndexSortOnTiedClouds) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    ElementVec elements = TiedElements(6000, seed);
    for (size_t group : {1u, 8u, 64u, 253u}) {
      EXPECT_EQ(StrOrder(elements, group), ReferenceStrOrder(elements, group))
          << "seed " << seed << ", group size " << group;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace neurodb
