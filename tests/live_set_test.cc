// LiveSet: the one copy of an engine's live element set — id lookup over
// the delta and the base, pinned versions that outlive the retention
// window, the next base generation Compact rebuilds over, and readers
// pinning while the writer publishes (run under TSan in CI).

#include "engine/live_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;

Aabb Box(float at) { return Aabb::Cube(Vec3(at, at, at), 1.0f); }

/// Base ids 10, 20, ..., 10 * n at boxes around their own id.
std::shared_ptr<const ElementVec> MakeBase(size_t n) {
  auto base = std::make_shared<ElementVec>();
  for (size_t i = 1; i <= n; ++i) {
    base->emplace_back(static_cast<ElementId>(10 * i),
                       Box(static_cast<float>(i)));
  }
  return base;
}

UpdateRequest Insert(ElementId id, const Aabb& bounds) {
  return UpdateRequest{UpdateKind::kInsert, id, bounds};
}
UpdateRequest Erase(ElementId id) {
  return UpdateRequest{UpdateKind::kErase, id, Aabb()};
}
UpdateRequest Move(ElementId id, const Aabb& bounds) {
  return UpdateRequest{UpdateKind::kMove, id, bounds};
}

TEST(LiveSetTest, SortByIdSortsAndRejectsDuplicates) {
  ElementVec shuffled = {{30, Box(3)}, {10, Box(1)}, {20, Box(2)}};
  auto sorted = LiveSet::SortById(shuffled);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->size(), 3u);
  EXPECT_EQ((*sorted)[0].id, 10u);
  EXPECT_EQ((*sorted)[2].id, 30u);

  shuffled.emplace_back(20, Box(9));
  EXPECT_TRUE(LiveSet::SortById(shuffled).status().IsInvalidArgument());
}

TEST(LiveSetTest, LookupChecksTheDeltaThenTheBase) {
  LiveSet live;
  live.Reset(MakeBase(5), 0);
  live.Apply(Erase(20));             // a tombstoned base id
  live.Apply(Move(30, Box(7)));      // a moved base id
  live.Apply(Insert(1000, Box(8)));  // an inserted id
  live.Publish(1);

  ASSERT_TRUE(live.Lookup(10).has_value());  // an untouched base id
  EXPECT_EQ(*live.Lookup(10), Box(1));
  EXPECT_FALSE(live.Lookup(20).has_value());
  ASSERT_TRUE(live.Lookup(30).has_value());
  EXPECT_EQ(*live.Lookup(30), Box(7));
  ASSERT_TRUE(live.Lookup(1000).has_value());
  EXPECT_EQ(*live.Lookup(1000), Box(8));
  EXPECT_FALSE(live.Lookup(15).has_value());     // between base ids
  EXPECT_FALSE(live.Lookup(99'999).has_value());  // past every id

  // An erased base id inserted again is live at its new bounds.
  live.Apply(Insert(20, Box(6)));
  ASSERT_TRUE(live.Lookup(20).has_value());
  EXPECT_EQ(*live.Lookup(20), Box(6));
  // An erased insert is gone.
  live.Apply(Erase(1000));
  EXPECT_FALSE(live.Lookup(1000).has_value());

  live.Publish(2);
  // 5 base - 1 erased + 1 inserted, then the insert erased again: 5.
  EXPECT_EQ(live.size(), 5u);
}

TEST(LiveSetTest, PinnedVersionOutlivesTheRetentionWindow) {
  LiveSet live(/*retained_versions=*/2);
  live.Reset(MakeBase(4), 0);
  live.Apply(Erase(10));
  live.Publish(1);
  const DeltaSnapshot pinned = live.Latest();
  ASSERT_EQ(pinned.epoch, 1u);
  ASSERT_TRUE(pinned.delta->IsDead(10));

  // Five more versions: three past the window of two.
  for (storage::Epoch e = 2; e <= 6; ++e) {
    live.Apply(Insert(1000 + e, Box(static_cast<float>(e))));
    live.Publish(e);
  }
  EXPECT_TRUE(live.At(1).status().IsOutOfRange());
  EXPECT_EQ(live.Latest().epoch, 6u);
  EXPECT_EQ(live.DeltaSize(), 6u);

  // The pinned pair still answers as it did when it was pinned.
  EXPECT_EQ(pinned.delta->Size(), 1u);
  EXPECT_EQ(pinned.delta->InsertCount(), 0u);
  EXPECT_TRUE(pinned.delta->IsDead(10));
}

TEST(LiveSetTest, NextBaseIsForEachLiveOverTheOldBase) {
  LiveSet live;
  live.Reset(MakeBase(50), 0);
  live.Apply(Erase(40));
  live.Apply(Move(70, Box(100)));
  live.Apply(Insert(5, Box(200)));
  live.Apply(Insert(10'000, Box(300)));
  live.Publish(1);

  const std::shared_ptr<const ElementVec> old_base = live.base();
  ElementVec expected;
  ASSERT_TRUE(live.Latest()
                  .delta
                  ->ForEachLive(*old_base,
                                [&](const SpatialElement& e) {
                                  expected.push_back(e);
                                  return Status::OK();
                                })
                  .ok());
  ElementVec next = live.NextBase();
  ASSERT_EQ(next.size(), expected.size());
  for (size_t i = 0; i < next.size(); ++i) {
    EXPECT_EQ(next[i].id, expected[i].id);
    EXPECT_EQ(next[i].bounds, expected[i].bounds);
  }
  EXPECT_EQ(next.size(), live.size());

  // Installing it empties the delta; the old generation stays intact for
  // whoever still holds it.
  live.Reset(std::make_shared<const ElementVec>(std::move(next)), 2);
  EXPECT_EQ(live.DeltaSize(), 0u);
  EXPECT_EQ(live.Latest().epoch, 2u);
  EXPECT_TRUE(live.At(1).status().IsOutOfRange());
  EXPECT_EQ(old_base->size(), 50u);
  // 50 base ids, one erased, one moved (still one element), two inserted.
  EXPECT_EQ(live.base()->size(), 51u);
}

TEST(LiveSetTest, ReaderPinsWhileTheWriterPublishes) {
  constexpr storage::Epoch kEpochs = 2000;
  LiveSet live(/*retained_versions=*/1);
  live.Reset(MakeBase(100), 0);

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> pins{0};
  std::thread reader([&] {
    // Epoch e is the state after e inserts: every pinned pair must agree
    // with itself, and the first pin must not change, however far the
    // writer moves on.
    const DeltaSnapshot first = live.Latest();
    while (!done.load(std::memory_order_acquire) || pins.load() < 2) {
      const DeltaSnapshot pinned = live.Latest();
      bad += pinned.delta->InsertCount() != pinned.epoch;
      bad += first.delta->InsertCount() != first.epoch;
      bad += live.size() < 100;
      ++pins;
    }
  });
  while (pins.load() == 0) std::this_thread::yield();
  for (storage::Epoch e = 1; e <= kEpochs; ++e) {
    live.Apply(Insert(100'000 + e, Box(static_cast<float>(e % 97))));
    live.Publish(e);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(live.size(), 100 + kEpochs);
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
