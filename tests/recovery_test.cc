// Crash-recovery tests: the kill-at-every-WAL-record matrix (a recovered
// engine answers byte-identically to a never-crashed oracle), torn-tail
// truncation, durable round-trips through QueryEngine::Open, checkpoint
// semantics (Compact truncates the WAL; a crash mid-checkpoint rolls back
// to the previous base + full WAL), the group-commit hold target, and the
// seeded recovery fuzz that backs the recovery_fuzz_nightly ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "diff_harness.h"
#include "engine/query_engine.h"
#include "geom/knn.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"
#include "storage/disk/file.h"

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;
using neurodb::testing::BruteForceRangeIds;
using neurodb::testing::EnvOr;
using neurodb::testing::ReplayWalkthrough;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "ndb_recovery_test_XXXXXX";
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
                     Aabb(Vec3(x, y, z), Vec3(x + 4, y + 4, z + 4)));
  }
  return out;
}

Aabb BoxAt(float x, float y, float z, float side) {
  return Aabb(Vec3(x, y, z), Vec3(x + side, y + side, z + side));
}

// A fixed 10-batch update script over MakeGrid(48) (ids 1..48; new ids from
// 1000): inserts, moves and erases, including ops on earlier batch output.
std::vector<std::vector<UpdateRequest>> ScriptedBatches() {
  auto ins = [](ElementId id, float x) {
    return UpdateRequest{UpdateKind::kInsert, id, BoxAt(x, x, x, 3)};
  };
  auto mov = [](ElementId id, float x) {
    return UpdateRequest{UpdateKind::kMove, id, BoxAt(x, 2, 2, 5)};
  };
  auto del = [](ElementId id) {
    return UpdateRequest{UpdateKind::kErase, id, Aabb()};
  };
  return {
      {ins(1000, 1), ins(1001, 7)},
      {mov(1000, 30), ins(1002, 13)},
      {del(1001), ins(1003, 19)},
      {mov(5, 44)},
      {del(7), del(1000)},
      {ins(1004, 25), mov(1002, 61)},
      {ins(1005, 33)},
      {del(1003), mov(11, 52)},
      {ins(1006, 39), ins(1007, 45), del(1004)},
      {mov(1006, 3), del(13)},
  };
}

// Mutates the brute-force oracle (ascending by id) exactly as the engine
// applies `batch`.
void ApplyToOracle(ElementVec* live, const std::vector<UpdateRequest>& batch) {
  for (const UpdateRequest& u : batch) {
    auto it = std::lower_bound(
        live->begin(), live->end(), u.id,
        [](const SpatialElement& e, ElementId v) { return e.id < v; });
    if (u.kind == UpdateKind::kInsert) {
      live->insert(it, SpatialElement(u.id, u.bounds));
    } else if (u.kind == UpdateKind::kErase) {
      ASSERT_TRUE(it != live->end() && it->id == u.id);
      live->erase(it);
    } else {
      ASSERT_TRUE(it != live->end() && it->id == u.id);
      it->bounds = u.bounds;
    }
  }
}

// kAll range + kNN + internal parity of `db` against the oracle live set.
void ExpectMatchesOracle(QueryEngine* db, const ElementVec& live,
                         const std::string& context) {
  const Aabb everything = BoxAt(-10, -10, -10, 200);
  const Aabb boxes[] = {everything, BoxAt(0, 0, 0, 25), BoxAt(28, 1, 1, 40)};
  for (const Aabb& box : boxes) {
    RangeRequest request;
    request.box = box;
    request.backend = BackendChoice::kAll;
    request.cache = CachePolicy::kWarm;
    geom::CollectingVisitor out;
    auto report = db->Execute(request, out);
    ASSERT_TRUE(report.ok()) << context << ": " << report.status().ToString();
    EXPECT_TRUE(report->results_match) << context;
    std::vector<ElementId> ids = out.Ids();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, BruteForceRangeIds(live, box)) << context;
  }

  KnnRequest knn;
  knn.point = Vec3(20, 20, 5);
  knn.k = 8;
  knn.backend = BackendChoice::kAll;
  auto kr = db->Execute(knn);
  ASSERT_TRUE(kr.ok()) << context;
  EXPECT_TRUE(kr->results_match) << context;
  EXPECT_EQ(kr->hits, geom::BruteForceKnn(live, knn.point, knn.k)) << context;
}

EngineOptions DurableOptions(const std::string& dir,
                             storage::FileSystem* fs = nullptr,
                             SyncPolicy sync = SyncPolicy::kPerBatch) {
  EngineOptions options;
  options.durability.dir = dir;
  options.durability.fs = fs;
  options.durability.block_bytes = 512;
  options.durability.sync = sync;
  return options;
}

// ---------------------------------------------------------------------------
// Round trips and basic Open semantics
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CleanCloseRoundTripsThroughOpen) {
  TempDir dir;
  ElementVec initial = MakeGrid(300);
  {
    QueryEngine db(DurableOptions(dir.Sub("data")));
    ASSERT_TRUE(db.LoadElements(initial).ok());
  }
  RecoveryReport report;
  auto db = QueryEngine::Open(dir.Sub("data"), EngineOptions(), &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.base_elements, initial.size());
  EXPECT_EQ(report.replayed_batches, 0u);
  EXPECT_FALSE(report.torn_tail);

  // Full differential parity of the reopened engine vs the original
  // element list: kAll ranges and kNN against brute force.
  neuro::MixedWorkloadOptions workload;
  auto outcome = neurodb::testing::RunDifferential(db->get(), initial,
                                                   workload, 120, 0xD15C);
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();

  // Walkthrough parity (sessions over the recovered engine).
  std::vector<Aabb> path = {BoxAt(0, 0, 0, 30), BoxAt(10, 5, 0, 30),
                            BoxAt(20, 10, 0, 30), BoxAt(30, 15, 0, 30)};
  EXPECT_EQ(ReplayWalkthrough(db->get(), initial, path,
                              scout::PrefetchMethod::kNone),
            std::string());
}

// base.ndb and the WAL hold bounds only, so a circuit's segment geometry
// does not survive a restart: on the reopened engine a join or a SCOUT
// session fails instead of measuring nothing.
TEST(RecoveryTest, ReopenedEngineRejectsJoinsAndScoutSessions) {
  TempDir dir;
  neuro::CircuitParams params;
  params.num_neurons = 10;
  params.seed = 42;
  auto circuit = neuro::CircuitGenerator(params).Generate();
  ASSERT_TRUE(circuit.ok());
  {
    QueryEngine db(DurableOptions(dir.Sub("data")));
    ASSERT_TRUE(db.LoadCircuit(*circuit).ok());
    auto join = db.Execute(JoinRequest());
    ASSERT_TRUE(join.ok());
    EXPECT_GT(join->pairs.size(), 0u);
    EXPECT_TRUE(db.OpenSession(scout::PrefetchMethod::kScout).ok());
  }
  auto db = QueryEngine::Open(dir.Sub("data"));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->NumSegments(), circuit->TotalSegments());
  EXPECT_TRUE((*db)->Execute(JoinRequest()).status().IsInvalidArgument());
  EXPECT_TRUE((*db)
                  ->OpenSession(scout::PrefetchMethod::kScout)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE((*db)->OpenSession(scout::PrefetchMethod::kNone).ok());
}

TEST(RecoveryTest, WalBatchesReplayAfterUncleanClose) {
  TempDir dir;
  ElementVec initial = MakeGrid(48);
  ElementVec oracle = initial;
  auto batches = ScriptedBatches();
  {
    QueryEngine db(DurableOptions(dir.Sub("data")));
    ASSERT_TRUE(db.LoadElements(initial).ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(
          db.ApplyUpdates(std::span<const UpdateRequest>(batch)).ok());
      ApplyToOracle(&oracle, batch);
    }
    // No Checkpoint, no Compact: everything since load lives in the WAL.
  }
  RecoveryReport report;
  auto db = QueryEngine::Open(dir.Sub("data"), EngineOptions(), &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.checkpoint_epoch, 0u);
  EXPECT_EQ(report.replayed_batches, batches.size());
  EXPECT_EQ((*db)->epoch(), batches.size());
  ExpectMatchesOracle(db->get(), oracle, "unclean close");
}

TEST(RecoveryTest, OpenRejectsADirectoryWithoutABase) {
  TempDir dir;
  auto db = QueryEngine::Open(dir.Sub("empty"));
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsNotFound()) << db.status().ToString();
}

TEST(RecoveryTest, CompactCheckpointsAndTruncatesTheWal) {
  TempDir dir;
  ElementVec oracle = MakeGrid(48);
  auto batches = ScriptedBatches();
  {
    QueryEngine db(DurableOptions(dir.Sub("data")));
    ASSERT_TRUE(db.LoadElements(MakeGrid(48)).ok());
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          db.ApplyUpdates(std::span<const UpdateRequest>(batches[i])).ok());
      ApplyToOracle(&oracle, batches[i]);
    }
    ASSERT_GT(db.durability()->wal().end_offset(), 16u);
    ASSERT_TRUE(db.Compact().ok());
    // The checkpoint emptied the log and stamped the post-compact epoch.
    EXPECT_EQ(db.durability()->wal().end_offset(), 16u);
    EXPECT_EQ(db.durability()->checkpoint_epoch(), 5u);
    for (size_t i = 4; i < 7; ++i) {
      ASSERT_TRUE(
          db.ApplyUpdates(std::span<const UpdateRequest>(batches[i])).ok());
      ApplyToOracle(&oracle, batches[i]);
    }
  }
  RecoveryReport report;
  auto db = QueryEngine::Open(dir.Sub("data"), EngineOptions(), &report);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(report.checkpoint_epoch, 5u);
  EXPECT_EQ(report.replayed_batches, 3u);
  EXPECT_EQ((*db)->epoch(), 8u);
  ExpectMatchesOracle(db->get(), oracle, "compact + tail");
}

TEST(RecoveryTest, DurableEngineReportsDeviceIo) {
  TempDir dir;
  QueryEngine db(DurableOptions(dir.Sub("data")));
  ASSERT_TRUE(db.LoadElements(MakeGrid(300)).ok());

  storage::IoStats totals = db.IoTotals();
  EXPECT_GT(totals.bytes_written, 0u);  // backend builds + checkpoint
  EXPECT_GT(totals.fsyncs, 0u);

  RangeRequest request;
  request.box = BoxAt(0, 0, 0, 50);
  request.backend = BackendChoice::kAll;
  request.cache = CachePolicy::kWarm;
  auto report = db.Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->io.bytes_read, 0u);  // first touch pays device reads

  // The in-memory engine reports all zeros through the same seams.
  QueryEngine memory;
  ASSERT_TRUE(memory.LoadElements(MakeGrid(300)).ok());
  storage::IoStats none = memory.IoTotals();
  EXPECT_EQ(none.bytes_read + none.bytes_written + none.fsyncs, 0u);
  auto memory_report = memory.Execute(request);
  ASSERT_TRUE(memory_report.ok());
  EXPECT_EQ(memory_report->io.bytes_read, 0u);
  EXPECT_EQ(memory_report->io.bytes_written, 0u);
}

// ---------------------------------------------------------------------------
// The crash matrix: kill the process at every WAL record (clean cut and
// torn tail), recover, and demand byte-identical answers to a never-
// crashed oracle holding exactly the acknowledged batches.
// ---------------------------------------------------------------------------

void RunCrashMatrix(size_t tear_bytes,
                    SyncPolicy sync = SyncPolicy::kPerBatch) {
  auto batches = ScriptedBatches();
  for (size_t crash_at = 0; crash_at < batches.size(); ++crash_at) {
    SCOPED_TRACE("crash before WAL record " + std::to_string(crash_at) +
                 " tear=" + std::to_string(tear_bytes) +
                 " sync=" + std::to_string(static_cast<int>(sync)));
    TempDir dir;
    storage::FaultPlan plan;
    plan.path_filter = "wal.ndb";
    plan.tear_bytes = tear_bytes;
    storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

    ElementVec oracle = MakeGrid(48);
    auto db = std::make_unique<QueryEngine>(
        DurableOptions(dir.Sub("data"), &fs, sync));
    ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());

    // Arm after load: every counted write is one ApplyUpdates WAL append,
    // so budget == index of the batch whose append dies.
    plan.Reset(static_cast<int64_t>(crash_at));
    size_t acked = 0;
    for (const auto& batch : batches) {
      auto applied = db->ApplyUpdates(std::span<const UpdateRequest>(batch));
      if (!applied.ok()) break;
      ApplyToOracle(&oracle, batch);
      ++acked;
    }
    ASSERT_EQ(acked, crash_at);
    ASSERT_TRUE(plan.Crashed());

    // An un-acknowledged batch must have left the engine consistent: it
    // still answers (pre-crash state) even though durability is gone.
    ExpectMatchesOracle(db.get(), oracle, "post-crash, pre-recovery");

    // "Restart the process": drop the dead engine, lift the fault, reopen.
    db.reset();
    plan.Reset(-1);
    RecoveryReport report;
    auto recovered =
        QueryEngine::Open(dir.Sub("data"), DurableOptions("", &fs), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    // No fsync'd batch may be lost; nothing past the acknowledged set may
    // materialize (a torn record must not replay).
    EXPECT_GE(report.replayed_batches, acked);
    EXPECT_LE(report.replayed_batches, acked + 1);
    EXPECT_EQ(report.replayed_batches, acked);
    EXPECT_EQ(report.torn_tail, tear_bytes > 0);
    if (tear_bytes > 0) {
      EXPECT_GT(report.dropped_bytes, 0u);
    }
    EXPECT_EQ((*recovered)->epoch(),
              report.checkpoint_epoch + report.replayed_batches);

    ExpectMatchesOracle(recovered->get(), oracle, "recovered");

    // Life goes on: the recovered engine accepts the remaining batches
    // (appending cleanly after the truncated tail) and stays in parity.
    for (size_t i = acked; i < batches.size(); ++i) {
      ASSERT_TRUE((*recovered)
                      ->ApplyUpdates(
                          std::span<const UpdateRequest>(batches[i]))
                      .ok());
      ApplyToOracle(&oracle, batches[i]);
    }
    ExpectMatchesOracle(recovered->get(), oracle, "resumed after recovery");
  }
}

TEST(RecoveryMatrixTest, KillAtEveryWalRecordLosesNoAcknowledgedBatch) {
  RunCrashMatrix(/*tear_bytes=*/0);
}

TEST(RecoveryMatrixTest, TornTailAtEveryWalRecordIsDroppedCleanly) {
  // 11 bytes is shorter than any record header: replay must classify the
  // leftover prefix as a torn tail and recovery must truncate it.
  RunCrashMatrix(/*tear_bytes=*/11);
}

// A single writer under SyncPolicy::kGroup forms groups of one: every
// coalesced append is still exactly one counted WAL write, so the whole
// matrix (and its byte-identical oracle) must hold unchanged.
TEST(RecoveryMatrixTest, KillAtEveryWalRecordUnderGroupCommit) {
  RunCrashMatrix(/*tear_bytes=*/0, SyncPolicy::kGroup);
}

TEST(RecoveryMatrixTest, TornTailAtEveryWalRecordUnderGroupCommit) {
  RunCrashMatrix(/*tear_bytes=*/11, SyncPolicy::kGroup);
}

// kNone still writes every record before the backends mutate — it only
// skips the fsync. Under the fault model a written record survives the
// crash, so the acknowledged set is still exactly what recovers.
TEST(RecoveryMatrixTest, KillAtEveryWalRecordUnderNoSyncPolicy) {
  RunCrashMatrix(/*tear_bytes=*/0, SyncPolicy::kNone);
}

// Kill the WAL write inside a genuinely coalesced group append: several
// writer threads race batches into the combining queue while the fault
// plan cuts the log after `budget` group writes. Group commit must keep
// the crash atomic per group — after recovery the live set is exactly the
// seed grid plus every acknowledged insert, nothing more, nothing less
// (an unacknowledged batch from a killed group must not materialize).
TEST(RecoveryMatrixTest, KillInsideCoalescedGroupAppendWithWriterRace) {
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 16;
  for (int64_t budget : {1, 2, 4, 7}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    TempDir dir;
    storage::FaultPlan plan;
    plan.path_filter = "wal.ndb";
    storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

    EngineOptions options =
        DurableOptions(dir.Sub("data"), &fs, SyncPolicy::kGroup);
    options.durability.group_max_batches = 8;
    options.durability.group_hold_us = 2000;  // force real coalescing
    auto db = std::make_unique<QueryEngine>(options);
    ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());

    plan.Reset(budget);
    std::vector<std::vector<ElementId>> acked(kWriters);
    {
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          for (int i = 0; i < kBatchesPerWriter; ++i) {
            UpdateRequest request;
            request.kind = UpdateKind::kInsert;
            request.id = 10000 + static_cast<ElementId>(w) * 1000 + i;
            float f = static_cast<float>(request.id % 97);
            request.bounds = BoxAt(f, f, f, 2);
            auto applied = db->ApplyUpdates(
                std::span<const UpdateRequest>(&request, 1));
            if (applied.ok()) acked[w].push_back(request.id);
          }
        });
      }
      for (auto& t : writers) t.join();
    }
    ASSERT_TRUE(plan.Crashed());

    size_t total_acked = 0;
    std::vector<ElementId> expected;
    for (const auto& ids : acked) {
      total_acked += ids.size();
      expected.insert(expected.end(), ids.begin(), ids.end());
    }
    for (const SpatialElement& e : MakeGrid(48)) expected.push_back(e.id);
    std::sort(expected.begin(), expected.end());

    db.reset();
    plan.Reset(-1);
    RecoveryReport report;
    auto recovered =
        QueryEngine::Open(dir.Sub("data"), DurableOptions("", &fs), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // Every batch in a group is acknowledged (or fails) atomically with
    // the group's single write + fsync, so replay lands on exactly the
    // acknowledged count.
    EXPECT_EQ(report.replayed_batches, total_acked);

    const Aabb everything = BoxAt(-10, -10, -10, 200);
    RangeRequest request;
    request.box = everything;
    request.backend = BackendChoice::kAll;
    geom::CollectingVisitor out;
    auto range = (*recovered)->Execute(request, out);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_TRUE(range->results_match);
    std::vector<ElementId> ids = out.Ids();
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, expected);
  }
}

// ---------------------------------------------------------------------------
// The group-commit hold: a kGroup leader holds its group open only until as
// many commits have queued as the largest of the last eight groups held
// ---------------------------------------------------------------------------

// A lone writer's first eight groups hold for the cap (group_max_batches)
// and time out; from then on the target is one, and no commit waits out
// group_hold_us, however long it is.
TEST(GroupCommitTest, LoneWriterStopsHoldingAfterEightGroups) {
  constexpr uint64_t kHoldUs = 200000;
  constexpr uint64_t kBatches = 30;
  TempDir dir;
  EngineOptions options =
      DurableOptions(dir.Sub("data"), nullptr, SyncPolicy::kGroup);
  options.durability.group_hold_us = kHoldUs;
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadElements(MakeGrid(48)).ok());
  const obs::Histogram* wait =
      db.metrics()->histogram("engine.commit.group_wait_us");

  const auto start = std::chrono::steady_clock::now();
  uint64_t held_in_first_eight = 0;
  for (uint64_t i = 0; i < kBatches; ++i) {
    const float f = static_cast<float>(i);
    const UpdateRequest request{UpdateKind::kInsert, 5000 + i,
                                BoxAt(f, f, f, 2)};
    ASSERT_TRUE(
        db.ApplyUpdates(std::span<const UpdateRequest>(&request, 1)).ok());
    ASSERT_EQ(wait->count(), i + 1);  // one group per commit
    if (i + 1 == 8) held_in_first_eight = wait->sum();
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // Each of the first eight groups held the whole window.
  EXPECT_GE(held_in_first_eight, 8 * kHoldUs);
  // Every later sample is 0: the sum stopped growing.
  EXPECT_EQ(wait->sum(), held_in_first_eight);
  EXPECT_EQ(db.metrics()->gauge("engine.commit.group_target")->value(), 1u);
  // Holding on every commit would take kBatches * 200 ms = 6 s.
  EXPECT_LT(seconds, kBatches * kHoldUs / 1e6 / 2);
}

// Two writers commit in lockstep rounds, the second a moment after the
// first, so every round is one group of two. In one round the second
// writer pauses past group_hold_us: the first writer's hold times out on a
// group of one, and so does the second's. Those groups of one must not
// lower the target: the next rounds are single groups of two again. (A
// target copied from the last group alone would stay at one: the leader
// would drain its own batch before the second writer queued.)
TEST(GroupCommitTest, GroupsOfTwoComeBackAfterAWriterPauses) {
  constexpr size_t kRounds = 50;
  constexpr size_t kPauseRound = 20;
  constexpr auto kHold = std::chrono::milliseconds(50);
  constexpr auto kStagger = std::chrono::milliseconds(5);
  TempDir dir;
  EngineOptions options =
      DurableOptions(dir.Sub("data"), nullptr, SyncPolicy::kGroup);
  options.durability.group_hold_us =
      std::chrono::duration_cast<std::chrono::microseconds>(kHold).count();
  QueryEngine db(options);
  ASSERT_TRUE(db.LoadElements(MakeGrid(48)).ok());
  const obs::Counter* fsyncs = db.metrics()->counter("wal.fsync");

  // WAL appends before each round, read once both writers reach it.
  std::vector<uint64_t> before;
  std::barrier round_start(2, [&]() noexcept {
    before.push_back(fsyncs->value());
  });
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t round = 0; round < kRounds; ++round) {
        round_start.arrive_and_wait();
        if (w == 1) {
          std::this_thread::sleep_for(round == kPauseRound ? 3 * kHold
                                                           : kStagger);
        }
        const float f = static_cast<float>(round);
        const UpdateRequest request{UpdateKind::kInsert,
                                    6000 + w * 1000 + round,
                                    BoxAt(f, f, f, 2)};
        EXPECT_TRUE(
            db.ApplyUpdates(std::span<const UpdateRequest>(&request, 1)).ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  before.push_back(fsyncs->value());
  ASSERT_EQ(before.size(), kRounds + 1);
  auto groups = [&](size_t round) { return before[round + 1] - before[round]; };

  size_t paired_before = 0, paired_after = 0;
  for (size_t round = 0; round < kPauseRound; ++round) {
    paired_before += groups(round) == 1;
  }
  for (size_t round = kPauseRound + 1; round < kRounds; ++round) {
    paired_after += groups(round) == 1;
  }
  const size_t rounds_after = kRounds - kPauseRound - 1;
  EXPECT_GE(paired_before, kPauseRound * 3 / 4);
  // The pause timed out both writers' holds: two groups of one.
  EXPECT_EQ(groups(kPauseRound), 2u);
  EXPECT_GE(paired_after, rounds_after * 3 / 4)
      << paired_after << " of " << rounds_after
      << " rounds after the pause were one group of two";
}

// A backend whose rebuild fails partway through Compact (a page-store
// write error) leaves the backends on different base generations: the
// engine poisons itself, and every later query and update fails rather
// than answer from a half-built index.
TEST(RecoveryTest, FailedCompactRebuildPoisonsTheEngine) {
  TempDir dir;
  storage::FaultPlan plan;
  // Only the grid's page file fails; the other backends rebuild beside it
  // and finish on the new generation.
  plan.path_filter = "Grid.pages";
  storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

  auto batches = ScriptedBatches();
  auto db =
      std::make_unique<QueryEngine>(DurableOptions(dir.Sub("data"), &fs));
  ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());
  ASSERT_TRUE(
      db->ApplyUpdates(std::span<const UpdateRequest>(batches[0])).ok());

  // The grid's first page write of the rebuild fails.
  plan.Reset(0);
  Status compacted = db->Compact();
  ASSERT_FALSE(compacted.ok());
  EXPECT_NE(compacted.ToString().find("backend 'Grid' failed mid-rebuild"),
            std::string::npos)
      << compacted.ToString();
  ASSERT_TRUE(plan.Crashed());
  // The device works again; the engine must still refuse.
  plan.Reset(-1);

  RangeRequest range;
  range.box = Aabb(Vec3(-1000, -1000, -1000), Vec3(1000, 1000, 1000));
  range.backend = BackendChoice::kAll;
  EXPECT_FALSE(db->Execute(range).ok());
  range.cache = CachePolicy::kWarm;
  range.backend = BackendChoice::kFlat;
  EXPECT_FALSE(db->Execute(range).ok());
  KnnRequest knn;
  knn.point = Vec3(0, 0, 0);
  knn.k = 3;
  EXPECT_FALSE(db->Execute(knn).ok());
  EXPECT_FALSE(
      db->ApplyUpdates(std::span<const UpdateRequest>(batches[1])).ok());
  EXPECT_FALSE(db->Compact().ok());
}

// When every page file fails at once, every backend's rebuild fails, in
// whatever order the lanes reach the device. Compact reports the first
// failure in registration order, FLAT's, and still poisons the engine.
TEST(RecoveryTest, CompactReportsTheFirstFailedRebuildInRegistrationOrder) {
  auto batches = ScriptedBatches();
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    TempDir dir;
    storage::FaultPlan plan;
    plan.path_filter = ".pages";
    storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);
    auto db =
        std::make_unique<QueryEngine>(DurableOptions(dir.Sub("data"), &fs));
    ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());
    ASSERT_TRUE(
        db->ApplyUpdates(std::span<const UpdateRequest>(batches[0])).ok());

    plan.Reset(0);
    Status compacted = db->Compact();
    EXPECT_NE(compacted.ToString().find("backend 'FLAT' failed mid-rebuild"),
              std::string::npos)
        << compacted.ToString();
    plan.Reset(-1);
    EXPECT_FALSE(db->Compact().ok());
  }
}

TEST(RecoveryTest, CrashDuringCheckpointRollsBackToPreviousBaseAndWal) {
  TempDir dir;
  storage::FaultPlan plan;
  plan.path_filter = "base.ndb";
  storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

  ElementVec oracle = MakeGrid(48);
  auto batches = ScriptedBatches();
  auto db =
      std::make_unique<QueryEngine>(DurableOptions(dir.Sub("data"), &fs));
  ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        db->ApplyUpdates(std::span<const UpdateRequest>(batches[i])).ok());
    ApplyToOracle(&oracle, batches[i]);
  }

  // Kill the base rewrite mid-checkpoint: copy-on-write means the
  // committed base (epoch 0) and the 4-record WAL must both survive.
  plan.Reset(1);
  ASSERT_FALSE(db->Compact().ok());
  ASSERT_TRUE(plan.Crashed());

  db.reset();
  plan.Reset(-1);
  RecoveryReport report;
  auto recovered =
      QueryEngine::Open(dir.Sub("data"), DurableOptions("", &fs), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.checkpoint_epoch, 0u);
  EXPECT_EQ(report.replayed_batches, 4u);
  ExpectMatchesOracle(recovered->get(), oracle, "mid-checkpoint crash");
}

// Kill the base rewrite of a *background* checkpoint (CheckpointAsync on
// the mutation worker) while the foreground keeps committing. The fault
// only hits base.ndb, so the concurrent commits keep succeeding; the
// failed checkpoint must leave the previous base and the (now longer) WAL
// fully intact, and recovery must land on every acknowledged batch.
TEST(RecoveryTest, KillMidBackgroundCheckpointKeepsCommittingAndRecovers) {
  TempDir dir;
  storage::FaultPlan plan;
  plan.path_filter = "base.ndb";
  storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

  ElementVec oracle = MakeGrid(48);
  auto batches = ScriptedBatches();
  auto db = std::make_unique<QueryEngine>(
      DurableOptions(dir.Sub("data"), &fs, SyncPolicy::kGroup));
  ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        db->ApplyUpdates(std::span<const UpdateRequest>(batches[i])).ok());
    ApplyToOracle(&oracle, batches[i]);
  }

  plan.Reset(1);
  std::future<Status> pending = db->CheckpointAsync();
  // Foreground writers race the streaming rewrite; their WAL appends are
  // not fault-filtered and must all acknowledge.
  for (size_t i = 4; i < batches.size(); ++i) {
    ASSERT_TRUE(
        db->ApplyUpdates(std::span<const UpdateRequest>(batches[i])).ok());
    ApplyToOracle(&oracle, batches[i]);
  }
  Status checkpoint = pending.get();
  ASSERT_FALSE(checkpoint.ok());
  ASSERT_TRUE(plan.Crashed());

  // The engine itself is still healthy — only the checkpoint died.
  ExpectMatchesOracle(db.get(), oracle, "after failed background checkpoint");

  db.reset();
  plan.Reset(-1);
  RecoveryReport report;
  auto recovered =
      QueryEngine::Open(dir.Sub("data"), DurableOptions("", &fs), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(report.checkpoint_epoch, 0u);
  EXPECT_EQ(report.replayed_batches, batches.size());
  ExpectMatchesOracle(recovered->get(), oracle,
                      "recovered after background-checkpoint kill");
}

// ---------------------------------------------------------------------------
// Per-backend page-file crash points: kill writes to the <backend>.pages
// files (rebuildable caches, unlike base.ndb/wal.ndb) during the two
// phases that write them — the initial build and Compact — and demand the
// directory stays recoverable either way.
// ---------------------------------------------------------------------------

// A crash inside the backend page builds of LoadElements: the load was
// never acknowledged, so recovery may legitimately come back with either
// the full load set (the WAL-before-build load record survived) or an
// empty engine (the crash predates the load record) — never partial
// state, and never an unopenable directory. At least one budget in the
// sweep must land after the load record, proving the record actually
// rescues a crashed build.
TEST(RecoveryMatrixTest, KillInBackendPageWritesDuringBuildStaysRecoverable) {
  ElementVec initial = MakeGrid(48);
  size_t full_recoveries = 0;
  size_t crashes = 0;
  for (int64_t budget : {1, 4, 12, 25}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    TempDir dir;
    storage::FaultPlan plan;
    plan.path_filter = ".pages";
    storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

    auto db = std::make_unique<QueryEngine>(
        DurableOptions(dir.Sub("data"), &fs));
    plan.Reset(budget);
    Status loaded = db->LoadElements(initial);
    if (loaded.ok()) continue;  // budget outlasted every build write
    ASSERT_TRUE(plan.Crashed()) << loaded.ToString();
    ++crashes;

    db.reset();
    plan.Reset(-1);
    RecoveryReport report;
    auto recovered =
        QueryEngine::Open(dir.Sub("data"), DurableOptions("", &fs), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    const Aabb everything = BoxAt(-10, -10, -10, 200);
    RangeRequest request;
    request.box = everything;
    request.backend = BackendChoice::kAll;
    geom::CollectingVisitor out;
    auto range = (*recovered)->Execute(request, out);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_TRUE(range->results_match);
    std::vector<ElementId> ids = out.Ids();
    std::sort(ids.begin(), ids.end());
    if (ids.empty()) {
      EXPECT_EQ(report.base_elements, 0u);  // pre-record crash: clean slate
    } else {
      ElementVec oracle = initial;
      std::sort(oracle.begin(), oracle.end(),
                [](const SpatialElement& a, const SpatialElement& b) {
                  return a.id < b.id;
                });
      EXPECT_EQ(ids, BruteForceRangeIds(oracle, everything));
      ++full_recoveries;
    }
  }
  EXPECT_GT(crashes, 0u);
  // The load record must have rescued at least one crashed build.
  EXPECT_GT(full_recoveries, 0u);
}

// A crash inside the .pages writes of Compact (the backend rebuilds or the
// checkpoint's store flush): the page files are caches of base + WAL, so
// recovery must land on exactly the acknowledged batches regardless of
// where in the compaction the write died.
TEST(RecoveryMatrixTest, KillInBackendPageWritesDuringCompactRecovers) {
  auto batches = ScriptedBatches();
  size_t crashes = 0;
  for (int64_t budget : {1, 3, 8, 20}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    TempDir dir;
    storage::FaultPlan plan;
    plan.path_filter = ".pages";
    storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

    ElementVec oracle = MakeGrid(48);
    auto db = std::make_unique<QueryEngine>(
        DurableOptions(dir.Sub("data"), &fs));
    ASSERT_TRUE(db->LoadElements(MakeGrid(48)).ok());
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          db->ApplyUpdates(std::span<const UpdateRequest>(batches[i])).ok());
      ApplyToOracle(&oracle, batches[i]);
    }

    plan.Reset(budget);
    Status compacted = db->Compact();
    if (!compacted.ok()) {
      ASSERT_TRUE(plan.Crashed()) << compacted.ToString();
      ++crashes;
    }

    db.reset();
    plan.Reset(-1);
    RecoveryReport report;
    auto recovered =
        QueryEngine::Open(dir.Sub("data"), DurableOptions("", &fs), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ExpectMatchesOracle(recovered->get(), oracle,
                        "compact .pages crash, budget " +
                            std::to_string(budget));

    // Life goes on: the rest of the script applies and stays in parity.
    for (size_t i = 5; i < batches.size(); ++i) {
      ASSERT_TRUE((*recovered)
                      ->ApplyUpdates(
                          std::span<const UpdateRequest>(batches[i]))
                      .ok());
      ApplyToOracle(&oracle, batches[i]);
    }
    ExpectMatchesOracle(recovered->get(), oracle, "resumed after .pages crash");
  }
  EXPECT_GT(crashes, 0u);
}

// ---------------------------------------------------------------------------
// Seeded recovery fuzz (recovery_fuzz_nightly scales NEURODB_RECOVERY_OPS
// to 10000): a MixedWorkload update stream with random crash points, each
// followed by recovery and an oracle parity check.
// ---------------------------------------------------------------------------

TEST(RecoveryFuzzTest, SeededRandomCrashPointsRecoverLosslessly) {
  const size_t ops = static_cast<size_t>(EnvOr("NEURODB_RECOVERY_OPS", 300));
  uint64_t seed = EnvOr("NEURODB_RECOVERY_SEED", 0x5EED0001);
  // The nightly run rotates coverage by deriving the seed from the date.
  if (std::getenv("NEURODB_DIFF_SEED_FROM_DATE") != nullptr) {
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    seed = static_cast<uint64_t>(utc.tm_year + 1900) * 10000 +
           static_cast<uint64_t>(utc.tm_mon + 1) * 100 +
           static_cast<uint64_t>(utc.tm_mday);
  }

  TempDir dir;
  storage::FaultPlan plan;
  plan.path_filter = "wal.ndb";
  storage::FaultInjectingFileSystem fs(storage::DefaultFileSystem(), &plan);

  ElementVec initial = MakeGrid(64);
  auto db =
      std::make_unique<QueryEngine>(DurableOptions(dir.Sub("data"), &fs));
  ASSERT_TRUE(db->LoadElements(initial).ok());

  // Oracle live set, ascending by id, mutated in lockstep.
  ElementVec live = initial;
  std::sort(live.begin(), live.end(),
            [](const SpatialElement& a, const SpatialElement& b) {
              return a.id < b.id;
            });
  ElementId next_id = live.back().id + 1;
  auto find_live = [&](ElementId id) {
    auto it = std::lower_bound(
        live.begin(), live.end(), id,
        [](const SpatialElement& e, ElementId v) { return e.id < v; });
    return (it != live.end() && it->id == id) ? it : live.end();
  };

  neuro::MixedWorkloadOptions workload_options;
  workload_options.update_fraction = 0.8;
  workload_options.knn_fraction = 0.1;
  std::vector<neuro::WorkloadQuery> workload =
      neuro::MixedWorkload(db->domain(), initial, workload_options, ops, seed);

  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  size_t acked_since_checkpoint = 0;
  size_t crashes = 0;
  size_t recoveries = 0;

  auto arm = [&] {
    plan.tear_bytes = (rng() % 3 == 0) ? 1 + rng() % 24 : 0;
    plan.Reset(static_cast<int64_t>(1 + rng() % 12));
  };
  arm();

  for (size_t i = 0; i < workload.size(); ++i) {
    const neuro::WorkloadQuery& query = workload[i];
    if (query.kind == neuro::QueryKind::kUpdate) {
      UpdateRequest request;
      if (query.update_op == neuro::WorkloadUpdateOp::kInsert) {
        request.kind = UpdateKind::kInsert;
        request.id = next_id++;
        request.bounds = query.box;
      } else {
        if (live.empty()) continue;
        size_t idx = static_cast<size_t>(query.update_rank % live.size());
        request.id = live[idx].id;
        request.kind = query.update_op == neuro::WorkloadUpdateOp::kErase
                           ? UpdateKind::kErase
                           : UpdateKind::kMove;
        request.bounds = query.box;
      }

      auto applied =
          db->ApplyUpdates(std::span<const UpdateRequest>(&request, 1));
      if (applied.ok()) {
        ++acked_since_checkpoint;
        if (request.kind == UpdateKind::kInsert) {
          live.emplace_back(request.id, request.bounds);
          std::sort(live.begin(), live.end(),
                    [](const SpatialElement& a, const SpatialElement& b) {
                      return a.id < b.id;
                    });
        } else if (request.kind == UpdateKind::kErase) {
          live.erase(find_live(request.id));
        } else {
          find_live(request.id)->bounds = request.bounds;
        }
        continue;
      }

      // The injected crash: recover and verify nothing acknowledged is
      // lost and nothing unacknowledged appears.
      ASSERT_TRUE(plan.Crashed())
          << "non-injected ApplyUpdates failure at op " << i << ": "
          << applied.status().ToString();
      ++crashes;
      db.reset();
      plan.Reset(-1);
      RecoveryReport report;
      auto recovered = QueryEngine::Open(dir.Sub("data"),
                                         DurableOptions("", &fs), &report);
      ASSERT_TRUE(recovered.ok())
          << "recovery " << recoveries << ": " << recovered.status().ToString();
      ASSERT_EQ(report.replayed_batches, acked_since_checkpoint)
          << "recovery " << recoveries;
      db = std::move(*recovered);
      ++recoveries;

      // Spot-check parity after every recovery.
      Aabb everything(Vec3(-100, -100, -100), Vec3(300, 300, 300));
      RangeRequest check;
      check.box = everything;
      check.backend = BackendChoice::kAll;
      geom::CollectingVisitor out;
      auto range = db->Execute(check, out);
      ASSERT_TRUE(range.ok());
      ASSERT_TRUE(range->results_match);
      std::vector<ElementId> ids = out.Ids();
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids, BruteForceRangeIds(live, everything))
          << "state diverged after recovery " << recoveries;

      // Occasionally checkpoint so the fuzz also crosses checkpoints.
      if (rng() % 4 == 0) {
        ASSERT_TRUE(db->Compact().ok());
        acked_since_checkpoint = 0;
      }
      arm();
    } else if (query.kind == neuro::QueryKind::kRange) {
      RangeRequest request;
      request.box = query.box;
      request.backend = BackendChoice::kAll;
      request.cache = CachePolicy::kWarm;
      geom::CollectingVisitor out;
      auto report = db->Execute(request, out);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report->results_match) << "op " << i;
      std::vector<ElementId> ids = out.Ids();
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids, BruteForceRangeIds(live, query.box)) << "op " << i;
    } else if (query.kind == neuro::QueryKind::kKnn) {
      KnnRequest request;
      request.point = query.point;
      request.k = query.k;
      request.backend = BackendChoice::kAll;
      auto report = db->Execute(request);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(report->results_match) << "op " << i;
      ASSERT_EQ(report->hits,
                geom::BruteForceKnn(live, query.point, query.k))
          << "op " << i;
    }
  }
  // The fuzz must actually have crashed (otherwise the budgets were far
  // too generous to test anything).
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(crashes, recoveries);
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
