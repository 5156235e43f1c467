#include "storage/page_store.h"

namespace neurodb {
namespace storage {

PageId PageStore::Allocate() {
  PageId id = static_cast<PageId>(pages_.size());
  pages_.emplace_back();
  pages_.back().id = id;
  return id;
}

Status PageStore::Write(PageId id, std::vector<geom::SpatialElement> elements) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("PageStore::Write: page id " + std::to_string(id) +
                              " >= " + std::to_string(pages_.size()));
  }
  pages_[id].elements = std::move(elements);
  return Status::OK();
}

Result<std::shared_ptr<const Page>> PageStore::Read(PageId id) const {
  if (id >= pages_.size()) {
    return Status::OutOfRange("PageStore::Read: page id " + std::to_string(id) +
                              " >= " + std::to_string(pages_.size()));
  }
  // An aliasing handle with no owner: it never touches a reference count.
  return std::shared_ptr<const Page>(std::shared_ptr<const Page>(),
                                     &pages_[id]);
}

size_t PageStore::TotalBytes() const {
  size_t total = 0;
  for (const auto& p : pages_) total += p.SizeBytes();
  return total;
}

}  // namespace storage
}  // namespace neurodb
