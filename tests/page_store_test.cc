#include "storage/page_store.h"

#include <gtest/gtest.h>

namespace neurodb {
namespace storage {
namespace {

using geom::Aabb;
using geom::SpatialElement;
using geom::Vec3;

std::vector<SpatialElement> MakeElements(size_t n) {
  std::vector<SpatialElement> out;
  for (size_t i = 0; i < n; ++i) {
    float f = static_cast<float>(i);
    out.emplace_back(i, Aabb(Vec3(f, f, f), Vec3(f + 1, f + 1, f + 1)));
  }
  return out;
}

TEST(PageStoreTest, AllocateAssignsSequentialIds) {
  PageStore store;
  EXPECT_EQ(store.Allocate(), 0u);
  EXPECT_EQ(store.Allocate(), 1u);
  EXPECT_EQ(store.Allocate(), 2u);
  EXPECT_EQ(store.NumPages(), 3u);
}

TEST(PageStoreTest, WriteThenReadRoundTrips) {
  PageStore store;
  PageId id = store.Allocate();
  ASSERT_TRUE(store.Write(id, MakeElements(5)).ok());
  auto page = store.Read(id);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->id, id);
  EXPECT_EQ((*page)->elements.size(), 5u);
  EXPECT_EQ((*page)->elements[3].id, 3u);
}

TEST(PageStoreTest, ReadInvalidIdFails) {
  PageStore store;
  auto page = store.Read(0);
  EXPECT_FALSE(page.ok());
  EXPECT_TRUE(page.status().IsOutOfRange());
}

TEST(PageStoreTest, WriteInvalidIdFails) {
  PageStore store;
  EXPECT_TRUE(store.Write(7, MakeElements(1)).IsOutOfRange());
}

// The in-memory store's handle aliases its own page: every Read returns the
// same address, and it stays valid while the store allocates more pages.
TEST(PageStoreTest, ReadAliasesThePageAcrossAllocate) {
  PageStore store;
  PageId id = store.Allocate();
  ASSERT_TRUE(store.Write(id, MakeElements(3)).ok());
  auto first = store.Read(id);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 100; ++i) store.Allocate();
  auto again = store.Read(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first->get());
  ASSERT_EQ((*first)->elements.size(), 3u);
  EXPECT_EQ((*first)->elements[2].id, 2u);
}

TEST(PageStoreTest, TotalBytesReflectsContents) {
  PageStore store;
  PageId a = store.Allocate();
  PageId b = store.Allocate();
  ASSERT_TRUE(store.Write(a, MakeElements(10)).ok());
  ASSERT_TRUE(store.Write(b, MakeElements(2)).ok());
  EXPECT_EQ(store.TotalBytes(),
            2 * kPageHeaderBytes + 12 * kElementBytes);
}

TEST(PageTest, BoundsCoverAllElements) {
  Page page;
  page.elements = MakeElements(4);
  Aabb b = page.Bounds();
  EXPECT_EQ(b.min, Vec3(0, 0, 0));
  EXPECT_EQ(b.max, Vec3(4, 4, 4));
}

TEST(PageTest, ElementsPerPageMatchesLayout) {
  // 8 KiB page: (8192 - 16) / 32 = 255 elements.
  EXPECT_EQ(ElementsPerPage(8192), 255u);
  EXPECT_EQ(ElementsPerPage(4096), 127u);
  // Degenerate page sizes never return zero.
  EXPECT_EQ(ElementsPerPage(10), 1u);
}

}  // namespace
}  // namespace storage
}  // namespace neurodb
