// Snapshot-read (MVCC-lite) tests: concurrent readers racing ApplyUpdates
// and Compact must answer exactly as a quiesced engine pinned at their read
// epoch (tests/diff_harness.h RunConcurrentReaders, also the body of the
// mvcc_stress_nightly ctest label and the TSan CI job) — default-epoch
// reads never retried, even with one retained version — explicit epoch
// pins replay historical answers within the retention window and report
// kOutOfRange beyond it, and an engine created empty and populated purely
// through updates survives a restart through QueryEngine::Open via its
// WAL-logged load record.

#include <gtest/gtest.h>

#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "diff_harness.h"
#include "engine/query_engine.h"
#include "geom/knn.h"

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;
using neurodb::testing::BruteForceRangeIds;
using neurodb::testing::ConcurrentReaderOptions;
using neurodb::testing::EnvOr;
using neurodb::testing::RunConcurrentReaders;

uint64_t MvccSeed() {
  // Fixed by default (deterministic CI); the nightly registration rotates
  // coverage by deriving the seed from the current UTC date.
  if (std::getenv("NEURODB_DIFF_SEED_FROM_DATE") != nullptr) {
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    return static_cast<uint64_t>(utc.tm_year + 1900) * 10000 +
           static_cast<uint64_t>(utc.tm_mon + 1) * 100 +
           static_cast<uint64_t>(utc.tm_mday);
  }
  return EnvOr("NEURODB_MVCC_SEED", 0x37C0FFEE);
}

ElementVec MakeCloud(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> pos(0.0f, 300.0f);
  std::uniform_real_distribution<float> side(1.0f, 8.0f);
  ElementVec out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(i + 1, Aabb::Cube(Vec3(pos(rng), pos(rng), pos(rng)),
                                       side(rng)));
  }
  return out;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "ndb_mvcc_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Concurrent snapshot reads (the differential harness run the TSan CI job
// and the mvcc_stress_nightly label execute at scale)
// ---------------------------------------------------------------------------

TEST(MvccTest, ConcurrentReadersMatchQuiescedOracle) {
  ElementVec elements = MakeCloud(350, 71);
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(elements).ok());

  ConcurrentReaderOptions options;
  options.readers = 4;
  options.queries_per_reader = 24;
  options.batches = 24;
  options.ops_per_batch = 6;
  auto outcome = RunConcurrentReaders(&db, elements, options, MvccSeed());
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_GT(outcome.queries_run, 0u);
}

TEST(MvccTest, ConcurrentReadersSurviveCompaction) {
  ElementVec elements = MakeCloud(350, 73);
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(elements).ok());

  ConcurrentReaderOptions options;
  options.readers = 4;
  options.queries_per_reader = 24;
  options.batches = 24;
  options.ops_per_batch = 6;
  options.compact_every = 6;
  auto outcome = RunConcurrentReaders(&db, elements, options, MvccSeed() + 1);
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
}

// Default-epoch reads hold their (epoch, delta) pair by reference: however
// far the one version ring moves on under them — here it keeps a single
// version — a read in flight is never retired, so no reader retries.
TEST(MvccTest, DefaultEpochReadsAreNeverRetired) {
  ElementVec elements = MakeCloud(300, 83);
  EngineOptions engine_options;
  engine_options.retained_versions = 1;
  QueryEngine db(engine_options);
  ASSERT_TRUE(db.LoadElements(elements).ok());

  // A writer committing 1-op batches for longer than the readers run.
  ConcurrentReaderOptions options;
  options.readers = 3;
  options.queries_per_reader = 1000;
  options.batches = 12000;
  options.ops_per_batch = 1;
  auto outcome = RunConcurrentReaders(&db, elements, options, MvccSeed() + 2);
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_EQ(outcome.queries_run, options.readers * options.queries_per_reader);
  EXPECT_EQ(outcome.retired_retries, 0u);
}

// ---------------------------------------------------------------------------
// Explicit epoch pins: historical replay within the retention window,
// kOutOfRange beyond it
// ---------------------------------------------------------------------------

TEST(MvccTest, ExplicitPinReplaysHistoricalAnswers) {
  ElementVec elements = MakeCloud(120, 77);
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(elements).ok());

  const Aabb everything(Vec3(-10, -10, -10), Vec3(350, 350, 350));
  // Oracle live set per epoch: epoch 0 = the load, epoch e = after e
  // single-insert batches.
  std::vector<ElementVec> live_at = {elements};
  for (ElementId id = 10'000; id < 10'005; ++id) {
    UpdateRequest insert{UpdateKind::kInsert, id,
                         Aabb::Cube(Vec3(50, 50, 50), 4.0f)};
    ASSERT_TRUE(
        db.ApplyUpdates(std::span<const UpdateRequest>(&insert, 1)).ok());
    ElementVec live = live_at.back();
    live.emplace_back(id, insert.bounds);
    live_at.push_back(std::move(live));
  }
  ASSERT_EQ(db.epoch(), 5u);

  // Every retained epoch replays the exact answer of its day.
  for (storage::Epoch e = 0; e <= 5; ++e) {
    RangeRequest request;
    request.box = everything;
    request.backend = BackendChoice::kAll;
    request.cache = CachePolicy::kCold;
    request.read_epoch = e;
    geom::CollectingVisitor out;
    auto report = db.Execute(request, out);
    ASSERT_TRUE(report.ok()) << "epoch " << e << ": "
                             << report.status().ToString();
    EXPECT_TRUE(report->results_match) << "epoch " << e;
    EXPECT_EQ(report->epoch, e);
    std::vector<ElementId> ids = out.Ids();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, BruteForceRangeIds(live_at[e], everything))
        << "epoch " << e;
  }

  // Publish past the retention window (8 versions): the oldest epochs
  // retire and a pin on them reports kOutOfRange instead of answering
  // from the wrong snapshot.
  for (ElementId id = 20'000; id < 20'008; ++id) {
    UpdateRequest insert{UpdateKind::kInsert, id,
                         Aabb::Cube(Vec3(80, 80, 80), 4.0f)};
    ASSERT_TRUE(
        db.ApplyUpdates(std::span<const UpdateRequest>(&insert, 1)).ok());
  }
  RangeRequest retired;
  retired.box = everything;
  retired.backend = BackendChoice::kAll;
  retired.cache = CachePolicy::kCold;
  retired.read_epoch = 0;
  auto report = db.Execute(retired);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsOutOfRange()) << report.status().ToString();

  // A pin in the future of the newest published epoch is equally absent.
  retired.read_epoch = db.epoch() + 100;
  // Future epochs resolve to nothing on the ring only when ahead of every
  // published version — VersionRing::At answers with the newest entry at
  // or below the pin, so this must still be the *current* answer.
  auto future = db.Execute(retired);
  ASSERT_TRUE(future.ok());
  EXPECT_EQ(future->results, live_at.back().size() + 8);
}

// Compaction retires every pre-compaction epoch: the delta folded into the
// base, so old pins cannot be answered any more and must say so.
TEST(MvccTest, CompactRetiresPreCompactionEpochs) {
  ElementVec elements = MakeCloud(100, 79);
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(elements).ok());

  UpdateRequest erase{UpdateKind::kErase, elements[0].id, Aabb()};
  ASSERT_TRUE(
      db.ApplyUpdates(std::span<const UpdateRequest>(&erase, 1)).ok());
  ASSERT_TRUE(db.Compact().ok());
  ASSERT_EQ(db.epoch(), 2u);

  RangeRequest request;
  request.box = Aabb(Vec3(-10, -10, -10), Vec3(350, 350, 350));
  request.backend = BackendChoice::kAll;
  request.cache = CachePolicy::kCold;
  request.read_epoch = 1;
  auto pinned = db.Execute(request);
  ASSERT_FALSE(pinned.ok());
  EXPECT_TRUE(pinned.status().IsOutOfRange()) << pinned.status().ToString();

  request.read_epoch = 2;
  auto current = db.Execute(request);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->results, elements.size() - 1);
}

// ---------------------------------------------------------------------------
// Durable-empty-engine recovery: an engine created with no elements and
// populated purely through ApplyUpdates must survive a restart — the load
// record in the WAL is its only birth certificate.
// ---------------------------------------------------------------------------

EngineOptions DurableOptions(const std::string& dir) {
  EngineOptions options;
  options.durability.dir = dir;
  options.durability.block_bytes = 512;
  return options;
}

TEST(MvccTest, EmptyDurableEngineRecoversThroughOpen) {
  TempDir dir;
  ElementVec live;  // oracle, ascending by id
  {
    QueryEngine db(DurableOptions(dir.Sub("data")));
    ASSERT_TRUE(db.LoadElements(ElementVec()).ok());
    for (ElementId id = 1; id <= 40; ++id) {
      float x = static_cast<float>(id) * 5.0f;
      UpdateRequest insert{UpdateKind::kInsert, id,
                           Aabb::Cube(Vec3(x, x, x), 3.0f)};
      ASSERT_TRUE(
          db.ApplyUpdates(std::span<const UpdateRequest>(&insert, 1)).ok());
      live.emplace_back(id, insert.bounds);
    }
    UpdateRequest erase{UpdateKind::kErase, 7, Aabb()};
    ASSERT_TRUE(
        db.ApplyUpdates(std::span<const UpdateRequest>(&erase, 1)).ok());
    live.erase(live.begin() + 6);
    // Unclean close: no Checkpoint, no Compact — everything this engine
    // ever knew lives in the WAL, including the (empty) load record.
  }

  RecoveryReport report;
  auto db = QueryEngine::Open(dir.Sub("data"), EngineOptions(), &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.base_elements, 0u);
  EXPECT_EQ(report.replayed_batches, 41u);
  EXPECT_EQ((*db)->epoch(), 41u);

  const Aabb everything(Vec3(-10, -10, -10), Vec3(300, 300, 300));
  RangeRequest request;
  request.box = everything;
  request.backend = BackendChoice::kAll;
  request.cache = CachePolicy::kWarm;
  geom::CollectingVisitor out;
  auto range = (*db)->Execute(request, out);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_TRUE(range->results_match);
  std::vector<ElementId> ids = out.Ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, BruteForceRangeIds(live, everything));

  KnnRequest knn;
  knn.point = Vec3(100, 100, 100);
  knn.k = 5;
  knn.backend = BackendChoice::kAll;
  auto kr = (*db)->Execute(knn);
  ASSERT_TRUE(kr.ok());
  EXPECT_TRUE(kr->results_match);
  EXPECT_EQ(kr->hits, geom::BruteForceKnn(live, knn.point, knn.k));

  // Keep living after recovery: more updates, a checkpoint, and a second
  // reopen — the checkpointed base now carries what the WAL used to.
  UpdateRequest insert{UpdateKind::kInsert, 500,
                       Aabb::Cube(Vec3(10, 200, 10), 4.0f)};
  ASSERT_TRUE(
      (*db)->ApplyUpdates(std::span<const UpdateRequest>(&insert, 1)).ok());
  live.emplace_back(500, insert.bounds);
  ASSERT_TRUE((*db)->Compact().ok());
  db->reset();

  RecoveryReport again;
  auto reopened = QueryEngine::Open(dir.Sub("data"), EngineOptions(), &again);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(again.base_elements, live.size());
  EXPECT_EQ(again.replayed_batches, 0u);
  geom::CollectingVisitor out2;
  auto range2 = (*reopened)->Execute(request, out2);
  ASSERT_TRUE(range2.ok());
  std::vector<ElementId> ids2 = out2.Ids();
  std::sort(ids2.begin(), ids2.end());
  EXPECT_EQ(ids2, BruteForceRangeIds(live, everything));
}

// The degenerate corner: an empty durable engine that crashes before any
// update still reopens (as an empty engine), rather than being mistaken
// for a missing data directory.
TEST(MvccTest, EmptyDurableEngineWithNoUpdatesReopensEmpty) {
  TempDir dir;
  {
    QueryEngine db(DurableOptions(dir.Sub("data")));
    ASSERT_TRUE(db.LoadElements(ElementVec()).ok());
  }
  RecoveryReport report;
  auto db = QueryEngine::Open(dir.Sub("data"), EngineOptions(), &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.base_elements, 0u);
  RangeRequest request;
  request.box = Aabb(Vec3(0, 0, 0), Vec3(100, 100, 100));
  request.backend = BackendChoice::kAll;
  auto range = (*db)->Execute(request);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->results, 0u);
}

// ---------------------------------------------------------------------------
// Seeded concurrent stress (mvcc_stress_nightly scales NEURODB_MVCC_OPS and
// rotates the seed daily)
// ---------------------------------------------------------------------------

TEST(MvccStressTest, SeededConcurrentStress) {
  const size_t ops = static_cast<size_t>(EnvOr("NEURODB_MVCC_OPS", 600));
  const uint64_t seed = MvccSeed();

  ElementVec elements = MakeCloud(400, seed ^ 0x5EED);
  QueryEngine db;
  ASSERT_TRUE(db.LoadElements(elements).ok());

  ConcurrentReaderOptions options;
  options.readers = static_cast<size_t>(EnvOr("NEURODB_MVCC_READERS", 4));
  options.batches = std::max<size_t>(8, ops / 12);
  options.ops_per_batch = 8;
  options.queries_per_reader = std::max<size_t>(16, ops / options.readers);
  options.compact_every = 10;
  options.knn_fraction = 0.35;
  auto outcome = RunConcurrentReaders(&db, elements, options, seed);
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
