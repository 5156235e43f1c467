// Durability stress: concurrent group-commit writers racing background
// checkpoints on a fault-injecting filesystem, crash-recover-verify in
// rounds (durability_stress_nightly scales NEURODB_STRESS_OPS to 4000),
// plus the residency-bound proof that streaming checkpoint and recovery
// never materialize more than a page chunk / pool window at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "diff_harness.h"
#include "engine/durability.h"
#include "engine/query_engine.h"
#include "storage/disk/file.h"
#include "storage/page.h"

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;
using neurodb::testing::EnvOr;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "ndb_durability_stress_XXXXXX";
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

ElementVec MakeGrid(size_t n) {
  ElementVec out;
  for (size_t i = 0; i < n; ++i) {
    float x = static_cast<float>(i % 8) * 10.0f;
    float y = static_cast<float>((i / 8) % 8) * 10.0f;
    float z = static_cast<float>(i / 64) * 10.0f;
    out.emplace_back(i + 1,
                     geom::Aabb(Vec3(x, y, z), Vec3(x + 4, y + 4, z + 4)));
  }
  return out;
}

EngineOptions StressOptions(const std::string& dir, storage::FileSystem* fs) {
  EngineOptions options;
  options.durability.dir = dir;
  options.durability.fs = fs;
  options.durability.block_bytes = 512;
  options.durability.sync = SyncPolicy::kGroup;
  options.durability.group_max_batches = 8;
  options.durability.group_hold_us = 500;
  // Small enough that every round's commits trip at least one background
  // checkpoint racing the writers.
  options.durability.checkpoint_wal_bytes = 4096;
  return options;
}

std::vector<ElementId> LiveIds(QueryEngine* db) {
  RangeRequest request;
  request.box = Aabb(Vec3(-100, -100, -100), Vec3(1e6f, 1e6f, 1e6f));
  request.backend = BackendChoice::kAll;
  geom::CollectingVisitor out;
  auto report = db->Execute(request, out);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    EXPECT_TRUE(report->results_match);
  }
  std::vector<ElementId> ids = out.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool IsSubset(const std::vector<ElementId>& sub,
              const std::vector<ElementId>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

// Rounds of: arm a random write budget over EVERY durable file (WAL group
// appends, background-checkpoint base rewrites and backend page flushes
// all count), let several writer threads race single-insert group commits
// against size-triggered background checkpoints until the budget kills
// something, then "restart": reopen and verify the recovered live set
// sits between the acknowledged set (group fsync returned — must survive)
// and the submitted set (a record written but never acknowledged may
// legitimately replay; state invented from nowhere may not). Recovered
// ids are durable from then on, so each round's baseline is the previous
// round's recovered set.
TEST(DurabilityStressTest, ConcurrentWritersWithBackgroundCheckpoints) {
  const size_t ops = static_cast<size_t>(EnvOr("NEURODB_STRESS_OPS", 400));
  uint64_t seed = EnvOr("NEURODB_STRESS_SEED", 0xBEEF0001);
  if (std::getenv("NEURODB_DIFF_SEED_FROM_DATE") != nullptr) {
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    seed = static_cast<uint64_t>(utc.tm_year + 1900) * 10000 +
           static_cast<uint64_t>(utc.tm_mon + 1) * 100 +
           static_cast<uint64_t>(utc.tm_mday);
  }
  constexpr int kWriters = 4;
  constexpr size_t kRounds = 6;
  const size_t per_writer =
      std::max<size_t>(5, ops / (kRounds * kWriters));

  TempDir dir;
  storage::FaultPlan plan;  // empty path_filter: every durable file counts
  storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

  auto db = std::make_unique<QueryEngine>(StressOptions(dir.Sub("data"), &fs));
  ASSERT_TRUE(db->LoadElements(MakeGrid(64)).ok());

  std::mt19937_64 rng(seed ^ 0xD0A1B2C3D4E5F607ull);
  std::vector<ElementId> present = LiveIds(db.get());  // the seed grid
  size_t crashes = 0;

  for (size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    plan.tear_bytes = (rng() % 3 == 0) ? 1 + rng() % 24 : 0;
    plan.Reset(static_cast<int64_t>(10 + rng() % 60));

    std::vector<std::vector<ElementId>> acked(kWriters);
    std::vector<std::vector<ElementId>> submitted(kWriters);
    {
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w, round] {
          for (size_t i = 0; i < per_writer; ++i) {
            UpdateRequest request;
            request.kind = UpdateKind::kInsert;
            request.id = 1000000 + round * 100000 +
                         static_cast<ElementId>(w) * 10000 + i;
            float f = static_cast<float>(request.id % 89);
            request.bounds =
                Aabb(Vec3(f, f, f), Vec3(f + 2, f + 2, f + 2));
            submitted[w].push_back(request.id);
            auto applied = db->ApplyUpdates(
                std::span<const UpdateRequest>(&request, 1));
            if (applied.ok()) acked[w].push_back(request.id);
          }
        });
      }
      for (auto& t : writers) t.join();
    }
    if (plan.Crashed()) ++crashes;

    // "Restart the process" whether or not this round's budget fired: the
    // recovered set must contain the baseline + everything acknowledged,
    // and nothing that was never submitted.
    std::vector<ElementId> must_have = present;
    std::vector<ElementId> may_have = present;
    for (int w = 0; w < kWriters; ++w) {
      must_have.insert(must_have.end(), acked[w].begin(), acked[w].end());
      may_have.insert(may_have.end(), submitted[w].begin(),
                      submitted[w].end());
    }
    std::sort(must_have.begin(), must_have.end());
    std::sort(may_have.begin(), may_have.end());

    db.reset();
    plan.Reset(-1);
    RecoveryReport report;
    auto recovered = QueryEngine::Open(dir.Sub("data"),
                                       StressOptions("", &fs), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    db = std::move(*recovered);

    std::vector<ElementId> ids = LiveIds(db.get());
    EXPECT_TRUE(IsSubset(must_have, ids))
        << "an acknowledged batch was lost in round " << round;
    EXPECT_TRUE(IsSubset(ids, may_have))
        << "recovery invented state in round " << round;
    present = std::move(ids);
  }
  // The budgets are sized so the sweep actually exercises crash paths.
  EXPECT_GT(crashes, 0u);
}

// The streaming bound: checkpoint a snapshot far larger than any buffer
// pool and prove peak residency stays one page chunk on the write side
// and one readahead window on the recovery side.
TEST(DurabilityStressTest, CheckpointAndRecoveryResidencyBoundedByPool) {
  TempDir dir;
  DurabilityOptions options;
  options.dir = dir.Sub("data");
  options.block_bytes = 512;
  auto dm = DurabilityManager::Create(options);
  ASSERT_TRUE(dm.ok()) << dm.status().ToString();

  const size_t per_page = storage::ElementsPerPage(options.block_bytes);
  const size_t kElements = per_page * 1200;  // ~1200 pages >> any window

  auto stream = (*dm)->BeginCheckpoint();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  for (size_t i = 0; i < kElements; ++i) {
    float f = static_cast<float>(i % 997);
    ASSERT_TRUE((*stream)
                    ->Append(SpatialElement{
                        static_cast<ElementId>(i + 1),
                        Aabb(Vec3(f, f, f), Vec3(f + 1, f + 1, f + 1))})
                    .ok());
  }
  ASSERT_TRUE((*stream)->Finish().ok());
  EXPECT_EQ((*stream)->elements_written(), kElements);
  // Write-side residency: never more than one page chunk in memory,
  // no matter how large the live set is.
  EXPECT_LE((*stream)->max_buffered(), per_page);
  ASSERT_TRUE((*dm)->CommitCheckpoint(1, (*dm)->wal().end_offset()).ok());

  // Recovery-side residency: stream the snapshot back through a 16-page
  // pool budget; the readahead window must respect it while still
  // coalescing reads well below one call per page.
  const uint64_t window = 16 * options.block_bytes;
  storage::PageFile::ScanStats scan;
  size_t streamed = 0, max_span = 0;
  Status scanned = (*dm)->StreamBase(
      [&](std::span<const SpatialElement> page) {
        streamed += page.size();
        max_span = std::max(max_span, page.size());
        return Status::OK();
      },
      window, &scan);
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(streamed, kElements);
  EXPECT_LE(max_span, per_page);
  EXPECT_LE(scan.max_window_bytes, window);
  EXPECT_GT(scan.read_calls, 0u);
  // Sequentially allocated checkpoint pages coalesce: far fewer device
  // reads than pages.
  EXPECT_LT(scan.read_calls, (kElements / per_page) / 4);
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
