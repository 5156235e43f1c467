// NeuroDB — DurabilityManager: what a durable engine keeps in its data
// directory, and the codec between ApplyUpdates batches and WAL payloads.
//
// A data directory holds:
//   base.ndb       PageFile of the last checkpointed element snapshot:
//                  every live element, ascending by id, packed onto pages
//                  0..N-1. The file's header epoch is the checkpoint epoch.
//   wal.ndb        WriteAheadLog of every ApplyUpdates batch accepted since
//                  that checkpoint (record epoch = the engine epoch the
//                  batch created).
//   <name>.pages   One PageFile per backend store (derived data — rebuilt
//                  from base.ndb on recovery, never read by it).
//
// The protocol (engine/query_engine.cc drives it):
//   * ApplyUpdates appends the encoded batch BEFORE any backend mutates —
//     under SyncPolicy::kPerBatch each append carries its own fsync; under
//     kGroup the commit-lock holder appends a whole group of batches in one
//     write + one fsync (LogUpdateGroup) — an acknowledged batch survives
//     any later crash either way. kNone skips the fsync entirely
//     (bulk-load: the next checkpoint is the durability point).
//   * Checkpoint/Compact rewrite base.ndb copy-on-write (streamed page by
//     page — peak residency is one page chunk, not the live set), commit
//     its header at the pinned epoch, then drop the covered WAL prefix
//     (CommitCheckpoint). A crash between those two steps is benign:
//     replay skips records at or below the checkpoint epoch.
//   * Compact logs a kWalKindEpochBump record for the epoch its rebuild
//     creates: the bump carries no ops, but keeps the WAL's epoch sequence
//     gapless when the checkpoint that would normally absorb it runs in
//     the background (or never completes).
//   * QueryEngine::Open streams base.ndb (readahead-coalesced ScanPages),
//     rebuilds every backend, replays the WAL tail through the normal
//     ApplyUpdates path, and truncates a torn final record.
//
// The WAL itself is payload-agnostic (storage must not depend on engine
// types); EncodeUpdateBatch/DecodeUpdateBatch is the engine-side codec.

#ifndef NEURODB_ENGINE_DURABILITY_H_
#define NEURODB_ENGINE_DURABILITY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/backend.h"
#include "engine/delta_index.h"
#include "geom/element.h"
#include "storage/disk/disk_page_store.h"
#include "storage/disk/page_file.h"
#include "storage/disk/wal.h"
#include "storage/epoch.h"

namespace neurodb {
namespace engine {

/// When an accepted ApplyUpdates batch becomes durable (docs/API.md
/// "Durability tuning"). Every policy writes the WAL record before any
/// backend mutates; they differ only in when the fsync happens.
enum class SyncPolicy : uint8_t {
  /// One fsync per batch — lowest latency to durability, lowest
  /// throughput under concurrent writers.
  kPerBatch,
  /// Group commit: concurrent writers' batches coalesce at the commit
  /// lock; the leader appends the whole group in one write and amortizes
  /// ONE fsync over it. Same durability guarantee as kPerBatch (a batch
  /// is only acknowledged after its group's fsync), ~group-size× fewer
  /// fsyncs.
  kGroup,
  /// No per-batch fsync at all (bulk load): batches are durable at the
  /// next checkpoint/Compact. A crash before that can lose acknowledged
  /// batches — opt in knowingly.
  kNone,
};

/// Durable-storage configuration (EngineOptions::durability). An empty
/// `dir` keeps the engine fully in-memory — the default, and the behaviour
/// of every engine before this subsystem existed.
struct DurabilityOptions {
  /// Data directory (created if missing). Empty disables durability.
  std::string dir;
  /// Block size of base.ndb and every backend page file.
  uint32_t block_bytes = 4096;
  /// Also put every backend's PageStore on disk (real block I/O per
  /// query). When false only base.ndb + wal.ndb are durable and backends
  /// stay on in-memory stores rebuilt at Open.
  bool disk_backends = true;
  /// Null means storage::DefaultFileSystem(); tests inject
  /// storage::FaultInjectingFileSystem here.
  storage::FileSystem* fs = nullptr;

  /// When a batch's WAL record is fsync'd (see SyncPolicy).
  SyncPolicy sync = SyncPolicy::kPerBatch;
  /// kGroup: most batches one coalesced append may carry, and the cap on
  /// the learned hold target: a leader holds its group open until as many
  /// batches have queued as the largest of the last eight groups held
  /// (docs/API.md "Durability tuning"). The target starts at this cap.
  size_t group_max_batches = 64;
  /// kGroup: the longest a leader holds its group open waiting for the
  /// target to queue (0 = take whatever is queued, never wait). Steady
  /// writers reach the target well before it, so it is paid only while
  /// the target is being learned or after a writer leaves.
  uint64_t group_hold_us = 100;
  /// When > 0: after a commit leaves the WAL at or past this many bytes,
  /// the engine schedules a background checkpoint on its mutation worker
  /// (CheckpointAsync). 0 disables the size trigger — Compact/Checkpoint
  /// remain the only checkpoint points.
  uint64_t checkpoint_wal_bytes = 0;

  bool enabled() const { return !dir.empty(); }
  Status Validate() const;
};

/// What QueryEngine::Open found and did. The crash-recovery matrix keys
/// its oracle off `replayed_batches`: a recovered engine equals a fresh
/// engine that applied exactly the first `replayed_batches` batches after
/// the checkpoint.
struct RecoveryReport {
  storage::Epoch checkpoint_epoch = 0;
  size_t base_elements = 0;
  /// WAL batches replayed through ApplyUpdates.
  size_t replayed_batches = 0;
  /// A torn (partially written) tail record was found and truncated away.
  bool torn_tail = false;
  uint64_t dropped_bytes = 0;
};

/// WAL payload kinds: every record starts with a u32 discriminator so the
/// log can carry more than update batches (docs/FILE_FORMAT.md).
inline constexpr uint32_t kWalKindUpdateBatch = 1;
inline constexpr uint32_t kWalKindLoadElements = 2;
/// An op-less epoch advance (Compact's rebuild): keeps replayed epochs
/// consecutive when the matching checkpoint runs in the background.
inline constexpr uint32_t kWalKindEpochBump = 3;

/// Default read window for streaming base scans (LoadBase/StreamBase):
/// callers that know their BufferPool budget pass their own.
inline constexpr uint64_t kDefaultScanWindowBytes = 1u << 20;

/// Serialize a batch: u32 kind (= kWalKindUpdateBatch), u32 count, then 40
/// bytes per op (u32 op kind, u32 reserved, u64 id, 6 × f32 bounds).
std::vector<uint8_t> EncodeUpdateBatch(std::span<const UpdateRequest> updates);

/// Parse an EncodeUpdateBatch payload; malformed input is kCorruption.
Result<std::vector<UpdateRequest>> DecodeUpdateBatch(
    const std::vector<uint8_t>& payload);

/// Serialize an initial dataset: u32 kind (= kWalKindLoadElements), u32
/// count, then 32 bytes per element (u64 id, 6 × f32 bounds). Logged by
/// LoadElements before any backend builds, so an engine created empty (or
/// crashed before its first checkpoint) recovers its birth dataset from
/// the WAL.
std::vector<uint8_t> EncodeLoadElements(
    std::span<const geom::SpatialElement> elements);

/// Parse an EncodeLoadElements payload; malformed input is kCorruption.
Result<geom::ElementVec> DecodeLoadElements(
    const std::vector<uint8_t>& payload);

/// Serialize an epoch bump: just the u32 kind (= kWalKindEpochBump) — the
/// epoch itself rides in the record header like every other record's.
std::vector<uint8_t> EncodeEpochBump();

/// The kind discriminator of a WAL payload (kCorruption when too short).
Result<uint32_t> WalPayloadKind(const std::vector<uint8_t>& payload);

/// A checkpoint rewrite in flight: elements stream in ascending id order,
/// buffered one page at a time (peak residency = storage::ElementsPerPage
/// elements, never the live set) and written under the PageFile's
/// sequential-allocation hint so the pages land physically contiguous.
/// Created by DurabilityManager::BeginCheckpoint; nothing is durable until
/// DurabilityManager::CommitCheckpoint — abandoning the stream (error
/// path) leaves the previous committed base fully intact.
class CheckpointStream {
 public:
  ~CheckpointStream();
  CheckpointStream(const CheckpointStream&) = delete;
  CheckpointStream& operator=(const CheckpointStream&) = delete;

  /// Add the next element (callers feed ascending ids; each full page
  /// chunk is written out immediately).
  Status Append(const geom::SpatialElement& element);

  /// Flush the final partial page. Idempotent; must precede
  /// CommitCheckpoint.
  Status Finish();

  size_t pages_written() const { return pages_written_; }
  size_t elements_written() const { return elements_written_; }
  /// Largest element buffer held at any point — the residency bound the
  /// larger-than-pool checkpoint test asserts on.
  size_t max_buffered() const { return max_buffered_; }

 private:
  friend class DurabilityManager;
  CheckpointStream(storage::PageFile* base, size_t per_page);
  Status FlushChunk();

  storage::PageFile* base_;
  size_t per_page_;
  std::vector<geom::SpatialElement> chunk_;
  storage::PageId next_page_ = 0;
  size_t pages_written_ = 0;
  size_t elements_written_ = 0;
  size_t max_buffered_ = 0;
  bool finished_ = false;
};

class DurabilityManager {
 public:
  /// Initialize `options.dir` as a fresh data directory: empty base.ndb at
  /// epoch 0 and an empty WAL (stale files are truncated).
  static Result<std::unique_ptr<DurabilityManager>> Create(
      const DurabilityOptions& options);

  /// Open an existing data directory for recovery: validates and loads
  /// base.ndb's header/directory and opens the WAL without replaying it.
  static Result<std::unique_ptr<DurabilityManager>> Attach(
      const DurabilityOptions& options);

  /// The epoch stamped into base.ndb by the last checkpoint.
  storage::Epoch checkpoint_epoch() const { return base_->epoch(); }

  /// Every element of the checkpointed snapshot, ascending by id.
  /// Materializes the full vector (backends build over it) but reads the
  /// file through StreamBase — the I/O buffer never exceeds `window_bytes`.
  Result<geom::ElementVec> LoadBase(
      uint64_t window_bytes = kDefaultScanWindowBytes) const;

  /// Stream the checkpointed snapshot in ascending id order, one decoded
  /// page span per callback, reading at most `window_bytes` at a time
  /// (physically adjacent pages coalesce into one readahead window).
  /// `scan_stats` (optional) reports read calls + peak window size.
  Status StreamBase(
      const std::function<Status(std::span<const geom::SpatialElement>)>& fn,
      uint64_t window_bytes,
      storage::PageFile::ScanStats* scan_stats = nullptr) const;

  /// Append one encoded batch to the WAL; `sync` fsyncs before returning
  /// (kPerBatch semantics — pass false under SyncPolicy::kNone).
  Status LogUpdates(storage::Epoch epoch,
                    std::span<const UpdateRequest> updates, bool sync = true);

  /// Group commit: append every record in ONE write with ONE fsync. On
  /// return all of them are durable; on error none was acknowledged.
  Status LogUpdateGroup(
      std::span<const storage::WriteAheadLog::PendingRecord> records);

  /// Durably append an op-less epoch advance (Compact's rebuild epoch).
  Status LogEpochBump(storage::Epoch epoch);

  /// Durably append the initial dataset as a load record (fsync'd on
  /// return). Written at engine load, before backends build; the next
  /// checkpoint truncates it away, so a healthy directory carries at most
  /// one — and only until its first checkpoint completes.
  Status LogLoad(storage::Epoch epoch,
                 std::span<const geom::SpatialElement> elements);

  /// Start a streaming base rewrite: stages a full copy-on-write page set
  /// under the sequential-allocation hint. The previous committed base
  /// stays intact (and readable through recovery) until CommitCheckpoint.
  Result<std::unique_ptr<CheckpointStream>> BeginCheckpoint();

  /// Make a finished stream the durable base: fsync the staged pages +
  /// header at `epoch`, then drop the WAL prefix below `wal_cut_offset`
  /// (the log's end_offset captured when the stream's snapshot was
  /// pinned — records at or before it have epoch <= `epoch` and are now
  /// covered by the base; records past it replay on top). Base-then-log
  /// order: a crash between the two leaves extra covered records behind,
  /// which replay skips by epoch.
  Status CommitCheckpoint(storage::Epoch epoch, uint64_t wal_cut_offset);

  /// Replay every intact WAL record in order, dispatching by payload kind:
  /// update batches to `fn`, load records to `load_fn` (rejected as
  /// corruption when null and one is present), epoch bumps to `bump_fn`
  /// (skipped when null — they carry no data). Stops cleanly at the first
  /// torn record; `stats` receives the scan summary.
  Status Replay(
      const std::function<Status(storage::Epoch,
                                 const std::vector<UpdateRequest>&)>& fn,
      storage::WriteAheadLog::ReplayStats* stats,
      const std::function<Status(storage::Epoch, geom::ElementVec)>& load_fn =
          nullptr,
      const std::function<Status(storage::Epoch)>& bump_fn = nullptr);

  /// Physically drop bytes past the last intact record (call after Replay).
  Status TruncateTornTail() {
    return wal_->TruncateTail(wal_->end_offset());
  }

  /// Store factory placing each backend's pages in "<dir>/<name>.pages".
  StoreFactory BackendStoreFactory() const;

  /// Device I/O of base.ndb + wal.ndb (backend page files report through
  /// their own stores).
  storage::IoStats io() const;

  const storage::PageFile& base() const { return *base_; }
  const storage::WriteAheadLog& wal() const { return *wal_; }
  const std::string& dir() const { return dir_; }

 private:
  DurabilityManager(std::string dir, uint32_t block_bytes,
                    storage::FileSystem* fs)
      : dir_(std::move(dir)), block_bytes_(block_bytes), fs_(fs) {}

  std::string dir_;
  uint32_t block_bytes_;
  storage::FileSystem* fs_;
  std::unique_ptr<storage::PageFile> base_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_DURABILITY_H_
