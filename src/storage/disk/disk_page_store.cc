#include "storage/disk/disk_page_store.h"

#include "storage/disk/format.h"

namespace neurodb {
namespace storage {

Result<std::unique_ptr<DiskPageStore>> DiskPageStore::Create(
    const std::string& path, const DiskStoreOptions& options) {
  FileSystem* fs = options.fs ? options.fs : DefaultFileSystem();
  auto file = PageFile::Create(fs, path, options.block_bytes);
  NEURODB_RETURN_NOT_OK(file.status());
  return std::unique_ptr<DiskPageStore>(
      new DiskPageStore(std::move(*file), 0));
}

Result<std::unique_ptr<DiskPageStore>> DiskPageStore::Open(
    const std::string& path, const DiskStoreOptions& options) {
  FileSystem* fs = options.fs ? options.fs : DefaultFileSystem();
  auto file = PageFile::Open(fs, path);
  NEURODB_RETURN_NOT_OK(file.status());
  // Page ids are allocated densely, so the page count is one past the
  // largest directory key (allocated-but-unwritten tail pages are lost on
  // reopen, which is fine: they hold no data).
  size_t num_pages = 0;
  if (!(*file)->directory().empty()) {
    num_pages = static_cast<size_t>((*file)->directory().rbegin()->first) + 1;
  }
  Epoch persisted = (*file)->epoch();
  std::unique_ptr<DiskPageStore> store(
      new DiskPageStore(std::move(*file), num_pages));
  store->AdvanceEpochTo(persisted);
  return store;
}

PageId DiskPageStore::Allocate() {
  return static_cast<PageId>(num_pages_++);
}

Status DiskPageStore::Write(PageId id,
                            std::vector<geom::SpatialElement> elements) {
  if (id >= num_pages_) {
    return Status::OutOfRange("DiskPageStore::Write: page id " +
                              std::to_string(id) + " >= " +
                              std::to_string(num_pages_));
  }
  return file_->WritePage(id, EncodePageImage(id, elements));
}

Result<std::shared_ptr<const Page>> DiskPageStore::Read(PageId id) const {
  if (id >= num_pages_) {
    return Status::OutOfRange("DiskPageStore::Read: page id " +
                              std::to_string(id) + " >= " +
                              std::to_string(num_pages_));
  }
  auto page = std::make_shared<Page>();
  if (file_->Contains(id)) {
    NEURODB_ASSIGN_OR_RETURN(std::vector<uint8_t> image, file_->ReadPage(id));
    NEURODB_ASSIGN_OR_RETURN(*page,
                             DecodePageImage(image.data(), image.size(), id));
  } else {
    // Allocated but never written: an empty page, like the in-memory store.
    page->id = id;
  }
  return std::shared_ptr<const Page>(std::move(page));
}

void DiskPageStore::Reset() {
  file_->Clear();
  num_pages_ = 0;
  BumpEpoch();
}

}  // namespace storage
}  // namespace neurodb
