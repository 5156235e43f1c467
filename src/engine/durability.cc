#include "engine/durability.h"

#include <algorithm>

#include "storage/disk/format.h"

namespace neurodb {
namespace engine {

namespace {

constexpr size_t kOpBytes = 40;
constexpr size_t kElementBytes = 32;

std::string BaseName(const std::string& dir) { return dir + "/base.ndb"; }
std::string WalName(const std::string& dir) { return dir + "/wal.ndb"; }

// Backend names become file names; keep them portable.
std::string SanitizeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

Status DurabilityOptions::Validate() const {
  if (!enabled()) return Status::OK();
  if (block_bytes < 64 || block_bytes > (1u << 24)) {
    return Status::InvalidArgument(
        "DurabilityOptions: block_bytes out of range");
  }
  if (sync == SyncPolicy::kGroup && group_max_batches == 0) {
    return Status::InvalidArgument(
        "DurabilityOptions: kGroup requires group_max_batches > 0");
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeUpdateBatch(
    std::span<const UpdateRequest> updates) {
  std::vector<uint8_t> out;
  out.reserve(8 + updates.size() * kOpBytes);
  storage::EncodeU32(&out, kWalKindUpdateBatch);
  storage::EncodeU32(&out, static_cast<uint32_t>(updates.size()));
  for (const UpdateRequest& u : updates) {
    storage::EncodeU32(&out, static_cast<uint32_t>(u.kind));
    storage::EncodeU32(&out, 0);
    storage::EncodeU64(&out, u.id);
    storage::EncodeF32(&out, u.bounds.min.x);
    storage::EncodeF32(&out, u.bounds.min.y);
    storage::EncodeF32(&out, u.bounds.min.z);
    storage::EncodeF32(&out, u.bounds.max.x);
    storage::EncodeF32(&out, u.bounds.max.y);
    storage::EncodeF32(&out, u.bounds.max.z);
  }
  return out;
}

Result<std::vector<UpdateRequest>> DecodeUpdateBatch(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < 8) {
    return Status::Corruption("update batch payload shorter than its header");
  }
  if (storage::GetU32(payload.data()) != kWalKindUpdateBatch) {
    return Status::Corruption("payload is not an update batch record");
  }
  uint32_t count = storage::GetU32(payload.data() + 4);
  if (payload.size() != 8 + static_cast<size_t>(count) * kOpBytes) {
    return Status::Corruption("update batch payload length mismatch");
  }
  std::vector<UpdateRequest> out;
  out.reserve(count);
  const uint8_t* p = payload.data() + 8;
  for (uint32_t i = 0; i < count; ++i, p += kOpBytes) {
    uint32_t kind = storage::GetU32(p);
    if (kind > static_cast<uint32_t>(UpdateKind::kMove)) {
      return Status::Corruption("update batch has unknown op kind " +
                                std::to_string(kind));
    }
    UpdateRequest u;
    u.kind = static_cast<UpdateKind>(kind);
    u.id = storage::GetU64(p + 8);
    u.bounds.min.x = storage::GetF32(p + 16);
    u.bounds.min.y = storage::GetF32(p + 20);
    u.bounds.min.z = storage::GetF32(p + 24);
    u.bounds.max.x = storage::GetF32(p + 28);
    u.bounds.max.y = storage::GetF32(p + 32);
    u.bounds.max.z = storage::GetF32(p + 36);
    out.push_back(u);
  }
  return out;
}

std::vector<uint8_t> EncodeLoadElements(
    std::span<const geom::SpatialElement> elements) {
  std::vector<uint8_t> out;
  out.reserve(8 + elements.size() * kElementBytes);
  storage::EncodeU32(&out, kWalKindLoadElements);
  storage::EncodeU32(&out, static_cast<uint32_t>(elements.size()));
  for (const geom::SpatialElement& e : elements) {
    storage::EncodeU64(&out, e.id);
    storage::EncodeF32(&out, e.bounds.min.x);
    storage::EncodeF32(&out, e.bounds.min.y);
    storage::EncodeF32(&out, e.bounds.min.z);
    storage::EncodeF32(&out, e.bounds.max.x);
    storage::EncodeF32(&out, e.bounds.max.y);
    storage::EncodeF32(&out, e.bounds.max.z);
  }
  return out;
}

Result<geom::ElementVec> DecodeLoadElements(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < 8) {
    return Status::Corruption("load payload shorter than its header");
  }
  if (storage::GetU32(payload.data()) != kWalKindLoadElements) {
    return Status::Corruption("payload is not a load record");
  }
  uint32_t count = storage::GetU32(payload.data() + 4);
  if (payload.size() != 8 + static_cast<size_t>(count) * kElementBytes) {
    return Status::Corruption("load payload length mismatch");
  }
  geom::ElementVec out;
  out.reserve(count);
  const uint8_t* p = payload.data() + 8;
  for (uint32_t i = 0; i < count; ++i, p += kElementBytes) {
    geom::SpatialElement e;
    e.id = storage::GetU64(p);
    e.bounds.min.x = storage::GetF32(p + 8);
    e.bounds.min.y = storage::GetF32(p + 12);
    e.bounds.min.z = storage::GetF32(p + 16);
    e.bounds.max.x = storage::GetF32(p + 20);
    e.bounds.max.y = storage::GetF32(p + 24);
    e.bounds.max.z = storage::GetF32(p + 28);
    out.push_back(e);
  }
  return out;
}

std::vector<uint8_t> EncodeEpochBump() {
  std::vector<uint8_t> out;
  storage::EncodeU32(&out, kWalKindEpochBump);
  return out;
}

Result<uint32_t> WalPayloadKind(const std::vector<uint8_t>& payload) {
  if (payload.size() < 4) {
    return Status::Corruption("WAL payload shorter than its kind tag");
  }
  return storage::GetU32(payload.data());
}

CheckpointStream::CheckpointStream(storage::PageFile* base, size_t per_page)
    : base_(base), per_page_(per_page) {
  chunk_.reserve(per_page_);
  base_->BeginSequentialAllocation();
}

CheckpointStream::~CheckpointStream() {
  // An abandoned stream (error path) must not leave the base allocating
  // sequentially forever.
  base_->EndSequentialAllocation();
}

Status CheckpointStream::FlushChunk() {
  if (chunk_.empty()) return Status::OK();
  NEURODB_RETURN_NOT_OK(base_->WritePage(
      next_page_, storage::EncodePageImage(next_page_, chunk_)));
  ++next_page_;
  ++pages_written_;
  chunk_.clear();
  return Status::OK();
}

Status CheckpointStream::Append(const geom::SpatialElement& element) {
  if (finished_) {
    return Status::InvalidArgument("CheckpointStream: append after Finish");
  }
  chunk_.push_back(element);
  ++elements_written_;
  if (chunk_.size() > max_buffered_) max_buffered_ = chunk_.size();
  if (chunk_.size() >= per_page_) return FlushChunk();
  return Status::OK();
}

Status CheckpointStream::Finish() {
  if (finished_) return Status::OK();
  NEURODB_RETURN_NOT_OK(FlushChunk());
  base_->EndSequentialAllocation();
  finished_ = true;
  return Status::OK();
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Create(
    const DurabilityOptions& options) {
  NEURODB_RETURN_NOT_OK(options.Validate());
  storage::FileSystem* fs =
      options.fs ? options.fs : storage::DefaultFileSystem();
  NEURODB_RETURN_NOT_OK(fs->CreateDir(options.dir));
  std::unique_ptr<DurabilityManager> dm(
      new DurabilityManager(options.dir, options.block_bytes, fs));

  auto base = storage::PageFile::Create(fs, BaseName(dm->dir_),
                                        options.block_bytes);
  NEURODB_RETURN_NOT_OK(base.status());
  dm->base_ = std::move(*base);

  // A stale WAL from a previous directory incarnation must not replay into
  // the fresh base; a stale cut side file is a crashed CutPrefix's orphan.
  NEURODB_RETURN_NOT_OK(fs->Remove(WalName(dm->dir_)));
  NEURODB_RETURN_NOT_OK(
      fs->Remove(storage::WriteAheadLog::CutSidePath(WalName(dm->dir_))));
  auto wal = storage::WriteAheadLog::OpenOrCreate(fs, WalName(dm->dir_));
  NEURODB_RETURN_NOT_OK(wal.status());
  dm->wal_ = std::move(*wal);
  return dm;
}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Attach(
    const DurabilityOptions& options) {
  NEURODB_RETURN_NOT_OK(options.Validate());
  storage::FileSystem* fs =
      options.fs ? options.fs : storage::DefaultFileSystem();
  if (!fs->Exists(BaseName(options.dir))) {
    return Status::NotFound("DurabilityManager: '" + options.dir +
                            "' has no base.ndb — not a data directory");
  }
  std::unique_ptr<DurabilityManager> dm(
      new DurabilityManager(options.dir, options.block_bytes, fs));

  auto base = storage::PageFile::Open(fs, BaseName(dm->dir_));
  NEURODB_RETURN_NOT_OK(base.status());
  dm->base_ = std::move(*base);

  // A crashed CutPrefix may have left its side file behind; the rename
  // never happened, so wal.ndb is authoritative and the orphan is noise.
  NEURODB_RETURN_NOT_OK(
      fs->Remove(storage::WriteAheadLog::CutSidePath(WalName(dm->dir_))));
  auto wal = storage::WriteAheadLog::OpenOrCreate(fs, WalName(dm->dir_));
  NEURODB_RETURN_NOT_OK(wal.status());
  dm->wal_ = std::move(*wal);
  return dm;
}

Result<geom::ElementVec> DurabilityManager::LoadBase(
    uint64_t window_bytes) const {
  geom::ElementVec out;
  NEURODB_RETURN_NOT_OK(StreamBase(
      [&out](std::span<const geom::SpatialElement> chunk) {
        out.insert(out.end(), chunk.begin(), chunk.end());
        return Status::OK();
      },
      window_bytes));
  return out;
}

Status DurabilityManager::StreamBase(
    const std::function<Status(std::span<const geom::SpatialElement>)>& fn,
    uint64_t window_bytes, storage::PageFile::ScanStats* scan_stats) const {
  return base_->ScanPages(
      [&](storage::PageId id, const uint8_t* data, size_t size) -> Status {
        auto page = storage::DecodePageImage(data, size, id);
        NEURODB_RETURN_NOT_OK(page.status());
        return fn(std::span<const geom::SpatialElement>(page->elements));
      },
      window_bytes, scan_stats);
}

Status DurabilityManager::LogUpdates(storage::Epoch epoch,
                                     std::span<const UpdateRequest> updates,
                                     bool sync) {
  return wal_->Append(epoch, EncodeUpdateBatch(updates), sync);
}

Status DurabilityManager::LogUpdateGroup(
    std::span<const storage::WriteAheadLog::PendingRecord> records) {
  return wal_->AppendBatch(records, /*sync=*/true);
}

Status DurabilityManager::LogEpochBump(storage::Epoch epoch) {
  return wal_->Append(epoch, EncodeEpochBump(), /*sync=*/true);
}

Status DurabilityManager::LogLoad(
    storage::Epoch epoch, std::span<const geom::SpatialElement> elements) {
  return wal_->Append(epoch, EncodeLoadElements(elements));
}

Result<std::unique_ptr<CheckpointStream>> DurabilityManager::BeginCheckpoint() {
  // Copy-on-write: Clear only *stages* the removal of the committed pages;
  // until CommitCheckpoint's Sync they stay on disk and a crash recovers
  // the previous checkpoint.
  base_->Clear();
  return std::unique_ptr<CheckpointStream>(new CheckpointStream(
      base_.get(), storage::ElementsPerPage(base_->block_bytes())));
}

Status DurabilityManager::CommitCheckpoint(storage::Epoch epoch,
                                           uint64_t wal_cut_offset) {
  // PageFile::Sync fsyncs the whole file before committing the header, so
  // every streamed page is durable before the header points at it.
  NEURODB_RETURN_NOT_OK(base_->Sync(epoch));
  // Only once the new base is committed may the log shrink; the reverse
  // order could lose acknowledged batches. Records appended after the
  // snapshot was pinned (offset >= wal_cut_offset) survive the cut.
  return wal_->CutPrefix(wal_cut_offset);
}

Status DurabilityManager::Replay(
    const std::function<Status(storage::Epoch,
                               const std::vector<UpdateRequest>&)>& fn,
    storage::WriteAheadLog::ReplayStats* stats,
    const std::function<Status(storage::Epoch, geom::ElementVec)>& load_fn,
    const std::function<Status(storage::Epoch)>& bump_fn) {
  return wal_->Replay(
      [&](const storage::WriteAheadLog::Record& record) -> Status {
        auto kind = WalPayloadKind(record.payload);
        NEURODB_RETURN_NOT_OK(kind.status());
        switch (*kind) {
          case kWalKindUpdateBatch: {
            auto ops = DecodeUpdateBatch(record.payload);
            NEURODB_RETURN_NOT_OK(ops.status());
            return fn(record.epoch, *ops);
          }
          case kWalKindLoadElements: {
            if (load_fn == nullptr) {
              return Status::Corruption(
                  "DurabilityManager::Replay: unexpected load record");
            }
            auto elements = DecodeLoadElements(record.payload);
            NEURODB_RETURN_NOT_OK(elements.status());
            return load_fn(record.epoch, std::move(*elements));
          }
          case kWalKindEpochBump:
            // Data-free: consumers that only want batches (the load-record
            // pre-scan) skip them by leaving bump_fn null.
            return bump_fn == nullptr ? Status::OK() : bump_fn(record.epoch);
          default:
            return Status::Corruption(
                "DurabilityManager::Replay: unknown WAL record kind " +
                std::to_string(*kind));
        }
      },
      stats);
}

StoreFactory DurabilityManager::BackendStoreFactory() const {
  std::string dir = dir_;
  uint32_t block_bytes = block_bytes_;
  storage::FileSystem* fs = fs_;
  return [dir, block_bytes,
          fs](const std::string& name)
             -> Result<std::unique_ptr<storage::PageStore>> {
    storage::DiskStoreOptions opts;
    opts.block_bytes = block_bytes;
    opts.fs = fs;
    auto store = storage::DiskPageStore::Create(
        dir + "/" + SanitizeName(name) + ".pages", opts);
    NEURODB_RETURN_NOT_OK(store.status());
    return std::unique_ptr<storage::PageStore>(std::move(*store));
  };
}

storage::IoStats DurabilityManager::io() const {
  storage::IoStats total = base_->io();
  total += wal_->io();
  return total;
}

}  // namespace engine
}  // namespace neurodb
