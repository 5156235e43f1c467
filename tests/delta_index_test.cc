// DeltaIndex against a std::map + std::set oracle: seeded random
// Insert/Erase/Move/Clear streams with ascending, descending and
// interleaved insert ids over several times the chunk size, every reader
// checked after every op; snapshots taken along the way re-checked after
// 1000 more writes; a reader thread scanning published snapshots while the
// writer keeps mutating the source (the TSan CI job runs this binary); and
// the shared kNN merge loop's re-asks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "engine/delta_index.h"
#include "geom/knn.h"

namespace neurodb {
namespace {

using engine::DeltaIndex;
using engine::UpdateKind;
using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::KnnHit;
using geom::SpatialElement;
using geom::Vec3;

/// Distinct ids the streams draw from: several chunks' worth.
constexpr ElementId kIds = 8 * DeltaIndex::kChunkRecords;

/// The old containers, as the reference semantics.
struct Oracle {
  std::map<ElementId, Aabb> inserts;
  std::set<ElementId> tombstones;

  void Apply(UpdateKind kind, ElementId id, const Aabb& bounds) {
    switch (kind) {
      case UpdateKind::kInsert:
        inserts[id] = bounds;
        break;
      case UpdateKind::kErase:
        if (inserts.erase(id) == 0) tombstones.insert(id);
        break;
      case UpdateKind::kMove:
        if (inserts.count(id) == 0) tombstones.insert(id);
        inserts[id] = bounds;
        break;
    }
  }
  void Clear() {
    inserts.clear();
    tombstones.clear();
  }
  bool IsDead(ElementId id) const {
    return tombstones.count(id) != 0 || inserts.count(id) != 0;
  }
  ElementVec Inserts() const {
    ElementVec out;
    for (const auto& [id, bounds] : inserts) out.emplace_back(id, bounds);
    return out;
  }
  ElementVec ApplyTo(const ElementVec& base) const {
    ElementVec out;
    for (const SpatialElement& e : base) {
      if (!IsDead(e.id)) out.push_back(e);
    }
    for (const auto& [id, bounds] : inserts) out.emplace_back(id, bounds);
    std::sort(out.begin(), out.end(),
              [](const SpatialElement& a, const SpatialElement& b) {
                return a.id < b.id;
              });
    return out;
  }
};

struct Op {
  bool clear = false;
  UpdateKind kind = UpdateKind::kInsert;
  ElementId id = 0;
  Aabb bounds;
};

void Apply(const Op& op, DeltaIndex* delta) {
  if (op.clear) {
    delta->Clear();
    return;
  }
  switch (op.kind) {
    case UpdateKind::kInsert:
      delta->Insert(op.id, op.bounds);
      break;
    case UpdateKind::kErase:
      delta->Erase(op.id);
      break;
    case UpdateKind::kMove:
      delta->Move(op.id, op.bounds);
      break;
  }
}

void Apply(const Op& op, Oracle* oracle) {
  if (op.clear) {
    oracle->Clear();
  } else {
    oracle->Apply(op.kind, op.id, op.bounds);
  }
}

enum class IdOrder { kAscending, kDescending, kInterleaved };

/// A seeded op stream: inserts take fresh ids in `order` (wrapping over
/// [1, kIds]), erases and moves pick any id of [1, kIds] — base-born,
/// delta-born or unknown alike, since the delta applies whatever it is
/// told. One Clear lands early, so the stream also rebuilds from empty.
std::vector<Op> MakeOps(IdOrder order, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto coord = [&] { return static_cast<float>(rng() % 1000) / 10.0f; };
  auto box = [&] {
    const Vec3 lo(coord(), coord(), coord());
    return Aabb(lo, lo + Vec3(1 + coord() / 20, 1 + coord() / 20, 1));
  };
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0, fresh = 0; i < n; ++i) {
    Op op;
    if (i == n / 5) {
      op.clear = true;
      ops.push_back(op);
      continue;
    }
    const uint64_t r = rng() % 100;
    if (r < 50) {
      const ElementId k = static_cast<ElementId>(fresh++ % kIds);
      op.kind = UpdateKind::kInsert;
      switch (order) {
        case IdOrder::kAscending:
          op.id = 1 + k;
          break;
        case IdOrder::kDescending:
          op.id = kIds - k;
          break;
        case IdOrder::kInterleaved:
          // Converge from both ends: 1, kIds, 2, kIds - 1, ...
          op.id = k % 2 == 0 ? 1 + k / 2 : kIds - k / 2;
          break;
      }
    } else {
      op.kind = r < 75 ? UpdateKind::kErase : UpdateKind::kMove;
      op.id = 1 + rng() % kIds;
    }
    op.bounds = box();
    ops.push_back(op);
  }
  return ops;
}

/// Every third id is a base element, ascending by id.
ElementVec MakeBase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  ElementVec base;
  for (ElementId id = 1; id <= kIds; id += 3) {
    const float x = static_cast<float>(rng() % 100);
    base.emplace_back(id, Aabb(Vec3(x, x, x), Vec3(x + 2, x + 2, x + 2)));
  }
  return base;
}

/// The half of the domain AppendInserts and Overlay are checked over.
const Aabb kHalf(Vec3(0, 0, 0), Vec3(50, 100, 100));

bool SameElements(const ElementVec& a, const ElementVec& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].bounds != b[i].bounds) return false;
  }
  return true;
}

ElementVec Visited(const DeltaIndex& delta) {
  ElementVec out;
  delta.ForEachInsert([&](const SpatialElement& e) { out.push_back(e); });
  return out;
}

/// Every reader of `delta` against `oracle`. Returns the number of
/// mismatching readers (0 = identical), so a thread can count failures
/// without asserting.
int Mismatches(const DeltaIndex& delta, const Oracle& oracle,
               const ElementVec& base) {
  int bad = 0;
  bad += delta.InsertCount() != oracle.inserts.size();
  bad += delta.TombstoneCount() != oracle.tombstones.size();
  bad += delta.Size() != oracle.inserts.size() + oracle.tombstones.size();
  bad += delta.Empty() != (oracle.inserts.empty() && oracle.tombstones.empty());
  for (ElementId id = 0; id <= kIds + 1; ++id) {
    bad += delta.IsDead(id) != oracle.IsDead(id);
  }

  const ElementVec inserts = oracle.Inserts();
  bad += !SameElements(Visited(delta), inserts);

  ElementVec in_half, want_half;
  delta.AppendInserts(kHalf, &in_half);
  for (const SpatialElement& e : inserts) {
    if (e.bounds.Intersects(kHalf)) want_half.push_back(e);
  }
  bad += !SameElements(in_half, want_half);

  Aabb bounds;
  for (const SpatialElement& e : inserts) bounds.Extend(e.bounds);
  bad += !(delta.InsertBounds() == bounds);

  bad += !SameElements(delta.ApplyTo(base), oracle.ApplyTo(base));

  ElementVec overlaid, want_overlaid;
  for (const SpatialElement& e : base) {
    if (e.bounds.Intersects(kHalf)) overlaid.push_back(e);
  }
  for (const SpatialElement& e : overlaid) {
    if (!oracle.IsDead(e.id)) want_overlaid.push_back(e);
  }
  want_overlaid.insert(want_overlaid.end(), want_half.begin(),
                       want_half.end());
  delta.Overlay(kHalf, &overlaid);
  bad += !SameElements(overlaid, want_overlaid);
  return bad;
}

class DeltaIndexOracleTest : public ::testing::TestWithParam<IdOrder> {};

TEST_P(DeltaIndexOracleTest, EveryReaderMatchesAfterEveryOp) {
  const ElementVec base = MakeBase(7);
  const std::vector<Op> ops = MakeOps(GetParam(), 3000, 11);
  DeltaIndex delta;
  Oracle oracle;
  size_t most = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    Apply(ops[i], &delta);
    Apply(ops[i], &oracle);
    ASSERT_EQ(Mismatches(delta, oracle, base), 0) << "after op " << i;
    most = std::max(most, delta.Size());
  }
  // The stream grew the delta to several chunks' worth, so splits, slot
  // drops and cross-chunk scans all ran.
  EXPECT_GE(most, 3 * DeltaIndex::kChunkRecords);
}

TEST_P(DeltaIndexOracleTest, SnapshotsAnswerAsTheyDidAfterMoreWrites) {
  const ElementVec base = MakeBase(8);
  const std::vector<Op> ops = MakeOps(GetParam(), 3500, 12);
  DeltaIndex delta;
  Oracle oracle;
  std::vector<std::pair<std::shared_ptr<const DeltaIndex>, Oracle>> snapshots;
  for (size_t i = 0; i < ops.size(); ++i) {
    Apply(ops[i], &delta);
    Apply(ops[i], &oracle);
    // Snapshot every 250 ops, the last one 1000 writes before the end.
    if (i % 250 == 0 && i + 1000 < ops.size()) {
      snapshots.emplace_back(std::make_shared<const DeltaIndex>(delta),
                             oracle);
    }
  }
  ASSERT_GE(snapshots.size(), 10u);
  for (size_t s = 0; s < snapshots.size(); ++s) {
    EXPECT_EQ(Mismatches(*snapshots[s].first, snapshots[s].second, base), 0)
        << "snapshot " << s;
  }
  // A copy is independent in both directions: writing the copy leaves the
  // source alone too.
  DeltaIndex copy = delta;
  for (ElementId id = 1; id <= kIds; ++id) copy.Erase(id);
  EXPECT_EQ(Mismatches(delta, oracle, base), 0);
}

INSTANTIATE_TEST_SUITE_P(IdOrders, DeltaIndexOracleTest,
                         ::testing::Values(IdOrder::kAscending,
                                           IdOrder::kDescending,
                                           IdOrder::kInterleaved));

TEST(DeltaIndexTest, ReaderScansSnapshotsWhileWriterMutates) {
  const ElementVec base = MakeBase(9);
  const std::vector<Op> ops = MakeOps(IdOrder::kInterleaved, 4000, 13);
  constexpr size_t kPublishEvery = 20;

  // The oracle state at every epoch the writer will publish: epoch e is
  // the state after e ops.
  std::map<storage::Epoch, Oracle> expected;
  {
    Oracle oracle;
    expected[0] = oracle;
    for (size_t i = 0; i < ops.size(); ++i) {
      Apply(ops[i], &oracle);
      if ((i + 1) % kPublishEvery == 0) expected[i + 1] = oracle;
    }
  }

  DeltaIndex delta;
  engine::VersionRing<DeltaIndex> ring(4);
  ring.Publish(0, std::make_shared<const DeltaIndex>(delta));
  const std::shared_ptr<const DeltaIndex> first = ring.Latest().snapshot;

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::atomic<int> scans{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire) || scans.load() < 2) {
      // The newest published version, and the pinned first one, which
      // every later write shares or shadows chunks of.
      const auto latest = ring.Latest();
      auto it = expected.find(latest.epoch);
      if (it == expected.end()) {
        ++bad;
      } else {
        bad += Mismatches(*latest.snapshot, it->second, base);
      }
      bad += Mismatches(*first, expected.at(0), base);
      ++scans;
    }
  });
  // Start writing once the reader is scanning.
  while (scans.load() == 0) std::this_thread::yield();
  for (size_t i = 0; i < ops.size(); ++i) {
    Apply(ops[i], &delta);
    if ((i + 1) % kPublishEvery == 0) {
      ring.Publish(i + 1, std::make_shared<const DeltaIndex>(delta));
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(scans.load(), 2);
}

TEST(DeltaIndexTest, ForEachLiveStopsAtTheFirstError) {
  const ElementVec base = MakeBase(10);
  DeltaIndex delta;
  delta.Insert(2, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  delta.Erase(4);
  size_t visited = 0;
  Status status = delta.ForEachLive(base, [&](const SpatialElement&) {
    return ++visited == 3 ? Status::Internal("stop") : Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(visited, 3u);
}

// ---------------------------------------------------------------------------
// The shared kNN merge loop
// ---------------------------------------------------------------------------

/// 200 unit boxes along the x axis, id i at x = i.
ElementVec LineBase() {
  ElementVec base;
  for (ElementId id = 1; id <= 200; ++id) {
    const float x = static_cast<float>(id);
    base.emplace_back(id, Aabb(Vec3(x, 0, 0), Vec3(x + 0.5f, 0.5f, 0.5f)));
  }
  return base;
}

TEST(DeltaIndexTest, MergeKnnAsksAgainUntilKLiveHits) {
  const ElementVec base = LineBase();
  DeltaIndex delta;
  // The 12 nearest base elements to the origin die: 8 erased, 4 moved far.
  for (ElementId id = 1; id <= 8; ++id) delta.Erase(id);
  for (ElementId id = 9; id <= 12; ++id) {
    delta.Move(id, Aabb(Vec3(900, 0, 0), Vec3(901, 1, 1)));
  }
  const Vec3 origin(0, 0, 0);
  std::vector<size_t> asks;
  std::vector<KnnHit> hits;
  ASSERT_TRUE(delta
                  .MergeKnn(origin, 4,
                            [&](size_t ask, std::vector<KnnHit>* out) {
                              asks.push_back(ask);
                              *out = geom::BruteForceKnn(base, origin, ask);
                              return Status::OK();
                            },
                            &hits)
                  .ok());
  // 4 hits all dead, 8 all dead, 16 with 4 live.
  EXPECT_EQ(asks, (std::vector<size_t>{4, 8, 16}));
  EXPECT_EQ(hits, geom::BruteForceKnn(delta.ApplyTo(base), origin, 4));

  // A far point whose nearest base elements all live asks once.
  asks.clear();
  const Vec3 far(150, 0, 0);
  ASSERT_TRUE(delta
                  .MergeKnn(far, 4,
                            [&](size_t ask, std::vector<KnnHit>* out) {
                              asks.push_back(ask);
                              *out = geom::BruteForceKnn(base, far, ask);
                              return Status::OK();
                            },
                            &hits)
                  .ok());
  EXPECT_EQ(asks, (std::vector<size_t>{4}));
  EXPECT_EQ(hits, geom::BruteForceKnn(delta.ApplyTo(base), far, 4));
}

TEST(DeltaIndexTest, MergeKnnStopsAtAnExhaustedBaseAndAtItsCap) {
  ElementVec base = LineBase();
  base.resize(5);
  DeltaIndex delta;
  for (ElementId id = 1; id <= 5; ++id) delta.Erase(id);
  delta.Insert(500, Aabb(Vec3(3, 3, 3), Vec3(4, 4, 4)));
  const Vec3 origin(0, 0, 0);
  std::vector<size_t> asks;
  std::vector<KnnHit> hits;
  auto base_knn = [&](size_t ask, std::vector<KnnHit>* out) {
    asks.push_back(ask);
    *out = geom::BruteForceKnn(base, origin, ask);
    return Status::OK();
  };
  // k = 2: 2 dead, 4 dead, then 8 returns all 5 — the base is exhausted.
  ASSERT_TRUE(delta.MergeKnn(origin, 2, base_knn, &hits).ok());
  EXPECT_EQ(asks, (std::vector<size_t>{2, 4, 8}));
  EXPECT_EQ(hits, geom::BruteForceKnn(delta.ApplyTo(base), origin, 2));

  // k = 1 over a base that never runs dry: the ask stops at k + Size() = 7.
  base = LineBase();
  asks.clear();
  ASSERT_TRUE(delta.MergeKnn(origin, 1, base_knn, &hits).ok());
  EXPECT_EQ(asks, (std::vector<size_t>{1, 2, 4, 7}));
  EXPECT_EQ(hits, geom::BruteForceKnn(delta.ApplyTo(base), origin, 1));
}

}  // namespace
}  // namespace neurodb
