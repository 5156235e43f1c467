// On-disk format tests: PageFile commit/reopen semantics, header
// validation, free-block reuse, DiskPageStore parity with the in-memory
// PageStore, the PageStore epoch guarantee recovery depends on, and the
// fault plan's write budget under concurrent writers.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk/disk_page_store.h"
#include "storage/disk/file.h"
#include "storage/disk/format.h"
#include "storage/disk/page_file.h"
#include "storage/disk/wal.h"
#include "storage/page_store.h"

namespace neurodb {
namespace storage {
namespace {

using geom::Aabb;
using geom::SpatialElement;
using geom::Vec3;

// Temp directories live under the test's working directory (the build
// tree), never outside the repo.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "ndb_disk_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path_ = made;
  }
  ~TempDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<SpatialElement> MakeElements(size_t n, uint64_t first_id = 0) {
  std::vector<SpatialElement> out;
  for (size_t i = 0; i < n; ++i) {
    float f = static_cast<float>(first_id + i);
    out.emplace_back(first_id + i,
                     Aabb(Vec3(f, f, f), Vec3(f + 1, f + 1, f + 1)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultInjectingFileSystem
// ---------------------------------------------------------------------------

// Four writers race on their own .pages files under one plan, as the
// backends do when they build at once. Each unit of budget admits exactly
// one write, and exactly one write crashes: the torn one, whose prefix is
// the only partial write that reaches a file.
TEST(FaultPlanTest, ConcurrentWritersShareTheBudgetExactly) {
  constexpr int kWriters = 4;
  constexpr int kWritesPerWriter = 1000;
  constexpr int64_t kBudget = 3000;
  constexpr size_t kBytes = 16;
  constexpr size_t kTear = 5;
  const std::vector<char> payload(kBytes, 'x');
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    TempDir dir;
    FaultPlan plan;
    plan.path_filter = ".pages";
    plan.tear_bytes = kTear;
    FaultInjectingFileSystem fs(DefaultFileSystem(), &plan);
    std::vector<std::unique_ptr<File>> files;
    for (int w = 0; w < kWriters; ++w) {
      auto file = fs.Open(dir.File("w" + std::to_string(w) + ".pages"),
                          /*truncate=*/true);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      files.push_back(std::move(*file));
    }

    plan.Reset(kBudget);
    std::atomic<int64_t> written{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kWritesPerWriter; ++i) {
          if (files[w]->WriteAt(i * kBytes, payload.data(), kBytes).ok()) {
            ++written;
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    EXPECT_EQ(written.load(), kBudget);
    EXPECT_TRUE(plan.Crashed());

    size_t landed = 0;
    for (const auto& file : files) {
      auto size = file->Size();
      ASSERT_TRUE(size.ok());
      std::vector<char> bytes(*size);
      auto read = file->ReadAt(0, bytes.data(), bytes.size());
      ASSERT_TRUE(read.ok());
      for (char c : bytes) landed += c == 'x';
    }
    EXPECT_EQ(landed, static_cast<size_t>(kBudget) * kBytes + kTear);
  }
}

// ---------------------------------------------------------------------------
// PageFile
// ---------------------------------------------------------------------------

TEST(PageFileTest, SyncedPagesSurviveReopen) {
  TempDir dir;
  std::string path = dir.File("pages.ndb");
  {
    auto pf = PageFile::Create(DefaultFileSystem(), path, 512);
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    for (PageId id = 0; id < 5; ++id) {
      ASSERT_TRUE(
          (*pf)->WritePage(id, EncodePageImage(id, MakeElements(3, id * 10)))
              .ok());
    }
    ASSERT_TRUE((*pf)->Sync(7).ok());
  }
  auto pf = PageFile::Open(DefaultFileSystem(), path);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_EQ((*pf)->epoch(), 7u);
  EXPECT_EQ((*pf)->NumPages(), 5u);
  EXPECT_EQ((*pf)->block_bytes(), 512u);
  for (PageId id = 0; id < 5; ++id) {
    auto image = (*pf)->ReadPage(id);
    ASSERT_TRUE(image.ok());
    auto page = DecodePageImage(image->data(), image->size(), id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(page->elements.size(), 3u);
    EXPECT_EQ(page->elements[0].id, id * 10u);
  }
}

TEST(PageFileTest, UnsyncedWritesAreInvisibleAfterReopen) {
  TempDir dir;
  std::string path = dir.File("pages.ndb");
  {
    auto pf = PageFile::Create(DefaultFileSystem(), path, 512);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE((*pf)->WritePage(0, EncodePageImage(0, MakeElements(2))).ok());
    ASSERT_TRUE((*pf)->Sync(1).ok());
    // Staged but never synced: must roll back to the epoch-1 state.
    ASSERT_TRUE((*pf)->WritePage(0, EncodePageImage(0, MakeElements(9))).ok());
    ASSERT_TRUE((*pf)->WritePage(1, EncodePageImage(1, MakeElements(4))).ok());
  }
  auto pf = PageFile::Open(DefaultFileSystem(), path);
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ((*pf)->epoch(), 1u);
  EXPECT_EQ((*pf)->NumPages(), 1u);
  auto image = (*pf)->ReadPage(0);
  ASSERT_TRUE(image.ok());
  auto page = DecodePageImage(image->data(), image->size(), 0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->elements.size(), 2u);
}

TEST(PageFileTest, RejectsForeignMagic) {
  TempDir dir;
  std::string path = dir.File("not_a_page_file");
  auto file = DefaultFileSystem()->Open(path, true);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> junk(kPageFileHeaderBytes, 0xAB);
  ASSERT_TRUE((*file)->WriteAt(0, junk.data(), junk.size()).ok());
  auto pf = PageFile::Open(DefaultFileSystem(), path);
  ASSERT_FALSE(pf.ok());
  EXPECT_TRUE(pf.status().IsCorruption()) << pf.status().ToString();
}

TEST(PageFileTest, RejectsFutureFormatVersionWithCleanStatus) {
  TempDir dir;
  std::string path = dir.File("pages.ndb");
  {
    auto pf = PageFile::Create(DefaultFileSystem(), path, 512);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE((*pf)->Sync(1).ok());
  }
  // Patch the version field to a future value and re-seal the CRC, so the
  // only thing wrong with the header is its version.
  auto file = DefaultFileSystem()->Open(path, false);
  ASSERT_TRUE(file.ok());
  uint8_t header[kPageFileHeaderBytes];
  auto n = (*file)->ReadAt(0, header, sizeof(header));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, sizeof(header));
  PutU32(header + 8, kFormatVersion + 1);   // version field
  PutU32(header + 44, Crc32(header, 44));   // trailing CRC
  ASSERT_TRUE((*file)->WriteAt(0, header, sizeof(header)).ok());

  auto pf = PageFile::Open(DefaultFileSystem(), path);
  ASSERT_FALSE(pf.ok());
  EXPECT_TRUE(pf.status().IsInvalidArgument()) << pf.status().ToString();
  EXPECT_NE(pf.status().ToString().find("version"), std::string::npos);
}

TEST(PageFileTest, CorruptHeaderCrcIsRejected) {
  TempDir dir;
  std::string path = dir.File("pages.ndb");
  {
    auto pf = PageFile::Create(DefaultFileSystem(), path, 512);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE((*pf)->Sync(1).ok());
  }
  auto file = DefaultFileSystem()->Open(path, false);
  ASSERT_TRUE(file.ok());
  uint8_t byte = 0;
  ASSERT_TRUE((*file)->ReadAt(16, &byte, 1).ok());  // epoch field
  byte ^= 0xFF;
  ASSERT_TRUE((*file)->WriteAt(16, &byte, 1).ok());
  auto pf = PageFile::Open(DefaultFileSystem(), path);
  ASSERT_FALSE(pf.ok());
  EXPECT_TRUE(pf.status().IsCorruption());
}

TEST(PageFileTest, RewritesReuseFreedBlocksInsteadOfGrowingTheFile) {
  TempDir dir;
  auto pf = PageFile::Create(DefaultFileSystem(), dir.File("pages.ndb"), 512);
  ASSERT_TRUE(pf.ok());
  // Two live generations at most (copy-on-write holds old + new between
  // Syncs), so steady-state rewriting must plateau, not grow linearly.
  ASSERT_TRUE((*pf)->WritePage(0, EncodePageImage(0, MakeElements(10))).ok());
  ASSERT_TRUE((*pf)->Sync(1).ok());
  uint64_t blocks_after_first = (*pf)->file_blocks();
  for (Epoch e = 2; e <= 21; ++e) {
    ASSERT_TRUE(
        (*pf)->WritePage(0, EncodePageImage(0, MakeElements(10))).ok());
    ASSERT_TRUE((*pf)->Sync(e).ok());
  }
  EXPECT_LE((*pf)->file_blocks(), blocks_after_first + 4);
}

TEST(PageFileTest, FreePageDropsThePageAtTheNextSync) {
  TempDir dir;
  std::string path = dir.File("pages.ndb");
  {
    auto pf = PageFile::Create(DefaultFileSystem(), path, 512);
    ASSERT_TRUE(pf.ok());
    ASSERT_TRUE((*pf)->WritePage(0, EncodePageImage(0, MakeElements(2))).ok());
    ASSERT_TRUE((*pf)->WritePage(1, EncodePageImage(1, MakeElements(2))).ok());
    ASSERT_TRUE((*pf)->Sync(1).ok());
    ASSERT_TRUE((*pf)->FreePage(0).ok());
    ASSERT_TRUE((*pf)->Sync(2).ok());
  }
  auto pf = PageFile::Open(DefaultFileSystem(), path);
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ((*pf)->NumPages(), 1u);
  EXPECT_FALSE((*pf)->Contains(0));
  EXPECT_TRUE((*pf)->Contains(1));
}

// ---------------------------------------------------------------------------
// WriteAheadLog
// ---------------------------------------------------------------------------

TEST(WalTest, AppendedRecordsReplayInOrderAcrossReopen) {
  TempDir dir;
  std::string path = dir.File("wal.ndb");
  {
    auto wal = WriteAheadLog::OpenOrCreate(DefaultFileSystem(), path);
    ASSERT_TRUE(wal.ok());
    for (Epoch e = 1; e <= 3; ++e) {
      ASSERT_TRUE((*wal)->Append(e, {uint8_t(e), uint8_t(e + 1)}).ok());
    }
  }
  auto wal = WriteAheadLog::OpenOrCreate(DefaultFileSystem(), path);
  ASSERT_TRUE(wal.ok());
  std::vector<Epoch> epochs;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->Replay(
                      [&](const WriteAheadLog::Record& r) {
                        epochs.push_back(r.epoch);
                        EXPECT_EQ(r.payload.size(), 2u);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(epochs, (std::vector<Epoch>{1, 2, 3}));
  EXPECT_EQ(stats.records, 3u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(WalTest, TornTailRecordIsDroppedCleanly) {
  TempDir dir;
  std::string path = dir.File("wal.ndb");
  uint64_t intact_end = 0;
  {
    auto wal = WriteAheadLog::OpenOrCreate(DefaultFileSystem(), path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, {1, 2, 3, 4}).ok());
    intact_end = (*wal)->end_offset();
    ASSERT_TRUE((*wal)->Append(2, {5, 6, 7, 8}).ok());
  }
  // Tear the final record: chop 3 bytes off the file.
  {
    auto file = DefaultFileSystem()->Open(path, false);
    ASSERT_TRUE(file.ok());
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE((*file)->Truncate(*size - 3).ok());
  }
  auto wal = WriteAheadLog::OpenOrCreate(DefaultFileSystem(), path);
  ASSERT_TRUE(wal.ok());
  size_t records = 0;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->Replay(
                      [&](const WriteAheadLog::Record&) {
                        ++records;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(records, 1u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.end_offset, intact_end);
  EXPECT_GT(stats.dropped_bytes, 0u);
  // After truncation the log appends cleanly where the intact data ends.
  ASSERT_TRUE((*wal)->TruncateTail(stats.end_offset).ok());
  ASSERT_TRUE((*wal)->Append(2, {9}).ok());
}

TEST(WalTest, CorruptPayloadByteStopsReplayAtThatRecord) {
  TempDir dir;
  std::string path = dir.File("wal.ndb");
  uint64_t second_offset = 0;
  {
    auto wal = WriteAheadLog::OpenOrCreate(DefaultFileSystem(), path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, {1, 2, 3, 4}).ok());
    second_offset = (*wal)->end_offset();
    ASSERT_TRUE((*wal)->Append(2, {5, 6, 7, 8}).ok());
  }
  {
    auto file = DefaultFileSystem()->Open(path, false);
    ASSERT_TRUE(file.ok());
    // Flip one payload byte of the second record (header is 16 bytes).
    uint8_t byte = 0;
    ASSERT_TRUE((*file)->ReadAt(second_offset + 16, &byte, 1).ok());
    byte ^= 0xFF;
    ASSERT_TRUE((*file)->WriteAt(second_offset + 16, &byte, 1).ok());
  }
  auto wal = WriteAheadLog::OpenOrCreate(DefaultFileSystem(), path);
  ASSERT_TRUE(wal.ok());
  size_t records = 0;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->Replay(
                      [&](const WriteAheadLog::Record&) {
                        ++records;
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(records, 1u);
  EXPECT_TRUE(stats.torn_tail);
}

// ---------------------------------------------------------------------------
// DiskPageStore — behaves exactly like the in-memory store through the
// PageStore interface, plus real I/O accounting and reopen.
// ---------------------------------------------------------------------------

TEST(DiskPageStoreTest, MatchesMemoryStoreSemantics) {
  TempDir dir;
  auto made = DiskPageStore::Create(dir.File("store.pages"));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  DiskPageStore& store = **made;

  EXPECT_EQ(store.Allocate(), 0u);
  EXPECT_EQ(store.Allocate(), 1u);
  EXPECT_EQ(store.NumPages(), 2u);

  ASSERT_TRUE(store.Write(0, MakeElements(10)).ok());
  ASSERT_TRUE(store.Write(1, MakeElements(2, 100)).ok());
  EXPECT_TRUE(store.Write(7, MakeElements(1)).IsOutOfRange());
  EXPECT_TRUE(store.Read(9).status().IsOutOfRange());

  const uint64_t reads = store.page_file().read_calls();
  auto page = store.Read(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ((*page)->id, 0u);
  ASSERT_EQ((*page)->elements.size(), 10u);
  EXPECT_EQ((*page)->elements[3].id, 3u);
  // The store keeps nothing: a repeat Read is another device read, decoded
  // into a page of its own.
  auto again = store.Read(0);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->get(), page->get());
  ASSERT_EQ((*again)->elements.size(), 10u);
  EXPECT_EQ((*again)->elements[3].id, 3u);
  EXPECT_EQ(store.page_file().read_calls(), reads + 2);

  EXPECT_EQ(store.TotalBytes(), 2 * kPageHeaderBytes + 12 * kElementBytes);

  // An allocated-but-never-written page reads back empty (memory-store
  // behaviour), not as an error.
  PageId fresh = store.Allocate();
  auto empty = store.Read(fresh);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ((*empty)->id, fresh);
  EXPECT_TRUE((*empty)->elements.empty());
}

TEST(DiskPageStoreTest, CountsDeviceIoWhereMemoryStoreReportsZeros) {
  TempDir dir;
  PageStore memory;
  auto made = DiskPageStore::Create(dir.File("store.pages"));
  ASSERT_TRUE(made.ok());
  DiskPageStore& disk = **made;

  PageId mid = memory.Allocate();
  PageId did = disk.Allocate();
  ASSERT_TRUE(memory.Write(mid, MakeElements(5)).ok());
  ASSERT_TRUE(disk.Write(did, MakeElements(5)).ok());
  ASSERT_TRUE(memory.Read(mid).ok());
  ASSERT_TRUE(disk.Read(did).ok());
  ASSERT_TRUE(disk.Flush().ok());

  IoStats none = memory.io();
  EXPECT_EQ(none.bytes_read, 0u);
  EXPECT_EQ(none.bytes_written, 0u);
  EXPECT_EQ(none.fsyncs, 0u);

  IoStats io = disk.io();
  EXPECT_GT(io.bytes_written, 0u);
  EXPECT_GT(io.bytes_read, 0u);   // every Read is a device read
  EXPECT_GT(io.fsyncs, 0u);
}

TEST(DiskPageStoreTest, ReopenRestoresPagesAndNeverRegressesEpoch) {
  TempDir dir;
  std::string path = dir.File("store.pages");
  {
    auto made = DiskPageStore::Create(path);
    ASSERT_TRUE(made.ok());
    DiskPageStore& store = **made;
    store.Allocate();
    store.Allocate();
    ASSERT_TRUE(store.Write(0, MakeElements(4)).ok());
    ASSERT_TRUE(store.Write(1, MakeElements(6, 50)).ok());
    store.BumpEpoch();
    store.BumpEpoch();
    ASSERT_TRUE(store.Flush().ok());  // commits at epoch 2
  }
  auto made = DiskPageStore::Open(path);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  DiskPageStore& store = **made;
  // A reopened store resumes at the persisted epoch: a BufferPool that
  // cached under epoch 2 must not see a "fresh" epoch-0 store.
  EXPECT_GE(store.epoch(), 2u);
  EXPECT_EQ(store.NumPages(), 2u);
  auto page = store.Read(1);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ((*page)->elements.size(), 6u);
  EXPECT_EQ((*page)->elements[0].id, 50u);
}

TEST(DiskPageStoreTest, ResetDropsPagesAndAdvancesEpoch) {
  TempDir dir;
  auto made = DiskPageStore::Create(dir.File("store.pages"));
  ASSERT_TRUE(made.ok());
  DiskPageStore& store = **made;
  store.Allocate();
  ASSERT_TRUE(store.Write(0, MakeElements(3)).ok());
  Epoch before = store.epoch();
  store.Reset();
  EXPECT_GT(store.epoch(), before);
  EXPECT_EQ(store.NumPages(), 0u);
  EXPECT_TRUE(store.Read(0).status().IsOutOfRange());
  // The file is reusable immediately.
  store.Allocate();
  ASSERT_TRUE(store.Write(0, MakeElements(1)).ok());
  ASSERT_TRUE(store.Flush().ok());
}

// ---------------------------------------------------------------------------
// PageStore epoch guarantee (recovery reopens stores; a pool must never see
// a regressed epoch).
// ---------------------------------------------------------------------------

TEST(PageStoreMoveTest, ResetKeepsEpochStrictlyIncreasing) {
  PageStore store;
  Epoch last = store.epoch();
  for (int i = 0; i < 5; ++i) {
    store.Allocate();
    store.Reset();
    EXPECT_GT(store.epoch(), last);
    last = store.epoch();
  }
}

}  // namespace
}  // namespace storage
}  // namespace neurodb
