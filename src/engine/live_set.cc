#include "engine/live_set.h"

#include <algorithm>
#include <utility>

namespace neurodb {
namespace engine {

namespace {

bool ById(const geom::SpatialElement& a, const geom::SpatialElement& b) {
  return a.id < b.id;
}

}  // namespace

LiveSet::LiveSet(size_t retained_versions)
    : base_(std::make_shared<const geom::ElementVec>()),
      versions_(retained_versions) {
  versions_.Reset(0, std::make_shared<const DeltaIndex>());
}

Result<geom::ElementVec> LiveSet::SortById(geom::ElementVec elements) {
  std::sort(elements.begin(), elements.end(), ById);
  for (size_t i = 1; i < elements.size(); ++i) {
    if (elements[i - 1].id == elements[i].id) {
      return Status::InvalidArgument("LiveSet: duplicate element id " +
                                     std::to_string(elements[i].id));
    }
  }
  return elements;
}

Result<bool> LiveSet::AscendingById(const geom::ElementVec& elements) {
  bool ascending = true;
  for (size_t i = 1; i < elements.size(); ++i) {
    if (elements[i - 1].id == elements[i].id) {
      return Status::InvalidArgument("LiveSet: duplicate element id " +
                                     std::to_string(elements[i].id));
    }
    ascending = ascending && elements[i - 1].id < elements[i].id;
  }
  return ascending;
}

void LiveSet::Reset(std::shared_ptr<const geom::ElementVec> base,
                    storage::Epoch epoch) {
  pending_.Clear();
  std::lock_guard<std::mutex> lock(base_mu_);
  base_ = std::move(base);
  versions_.Reset(epoch, std::make_shared<const DeltaIndex>());
}

std::optional<geom::Aabb> LiveSet::Lookup(geom::ElementId id) const {
  if (const geom::SpatialElement* insert = pending_.FindInsert(id)) {
    return insert->bounds;
  }
  if (pending_.IsTombstoned(id)) return std::nullopt;
  // The writer is the only thread that replaces base_, so it reads it
  // without the lock.
  auto it = std::lower_bound(
      base_->begin(), base_->end(), id,
      [](const geom::SpatialElement& e, geom::ElementId key) {
        return e.id < key;
      });
  if (it != base_->end() && it->id == id) return it->bounds;
  return std::nullopt;
}

void LiveSet::Apply(const UpdateRequest& update) {
  switch (update.kind) {
    case UpdateKind::kInsert:
      pending_.Insert(update.id, update.bounds);
      break;
    case UpdateKind::kErase:
      pending_.Erase(update.id);
      break;
    case UpdateKind::kMove:
      pending_.Move(update.id, update.bounds);
      break;
  }
}

void LiveSet::Publish(storage::Epoch epoch) {
  versions_.Publish(epoch, std::make_shared<const DeltaIndex>(pending_));
}

geom::ElementVec LiveSet::NextBase() const { return pending_.ApplyTo(*base_); }

std::shared_ptr<const geom::ElementVec> LiveSet::base() const {
  std::lock_guard<std::mutex> lock(base_mu_);
  return base_;
}

size_t LiveSet::size() const {
  std::lock_guard<std::mutex> lock(base_mu_);
  const std::shared_ptr<const DeltaIndex> delta = versions_.Latest().snapshot;
  // Tombstones only ever name base ids, and an insert either shadows a
  // tombstoned base id or adds a new one.
  return base_->size() - delta->TombstoneCount() + delta->InsertCount();
}

size_t LiveSet::DeltaSize() const {
  return versions_.Latest().snapshot->Size();
}

}  // namespace engine
}  // namespace neurodb
