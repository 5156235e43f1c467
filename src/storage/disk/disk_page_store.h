// NeuroDB — DiskPageStore: the PageStore implementation backed by a real
// page file (the brepdb DiskStorageManager side of the split; the base
// PageStore is the MemoryStorageManager side).
//
// Every Read is one device read through PageFile: it decodes the page
// image into a fresh Page and keeps nothing, so the handle it returns owns
// the page. The BufferPool above is the only page cache — its capacity
// bounds the decoded pages it holds, and each of its misses is exactly one
// device read. Writes always hit the device (copy-on-write into fresh
// blocks); io() reports the real bytes and fsyncs.

#ifndef NEURODB_STORAGE_DISK_DISK_PAGE_STORE_H_
#define NEURODB_STORAGE_DISK_DISK_PAGE_STORE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk/file.h"
#include "storage/disk/page_file.h"
#include "storage/page_store.h"

namespace neurodb {
namespace storage {

struct DiskStoreOptions {
  uint32_t block_bytes = 4096;
  /// Null means DefaultFileSystem() (real POSIX I/O).
  FileSystem* fs = nullptr;
};

class DiskPageStore : public PageStore {
 public:
  /// Create (truncate) a fresh page file at `path`.
  static Result<std::unique_ptr<DiskPageStore>> Create(
      const std::string& path, const DiskStoreOptions& options = {});

  /// Open an existing page file. The store's epoch starts at the persisted
  /// header epoch (never below it — reopened stores must not reuse an
  /// epoch a BufferPool may have cached under).
  static Result<std::unique_ptr<DiskPageStore>> Open(
      const std::string& path, const DiskStoreOptions& options = {});

  PageId Allocate() override;
  Status Write(PageId id, std::vector<geom::SpatialElement> elements) override;
  Result<std::shared_ptr<const Page>> Read(PageId id) const override;
  size_t NumPages() const override { return num_pages_; }
  size_t TotalBytes() const override { return file_->PayloadBytes(); }
  IoStats io() const override { return file_->io(); }

  /// Commit the staged page directory + free list durably, stamping the
  /// store's current epoch into the file header.
  Status Flush() override { return file_->Sync(epoch()); }

  void Reset() override;

  const PageFile& page_file() const { return *file_; }

 private:
  DiskPageStore(std::unique_ptr<PageFile> file, size_t num_pages)
      : file_(std::move(file)), num_pages_(num_pages) {}

  std::unique_ptr<PageFile> file_;
  size_t num_pages_ = 0;
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_DISK_DISK_PAGE_STORE_H_
