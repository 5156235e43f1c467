#include "engine/base_delta_backend.h"

#include <algorithm>
#include <utility>

namespace neurodb {
namespace engine {

Status BaseDeltaBackend::Build(const geom::ElementVec& elements) {
  if (built_) {
    return Status::AlreadyExists(std::string(name()) + ": already built");
  }
  base_empty_ = elements.empty();
  if (!base_empty_) {
    NEURODB_RETURN_NOT_OK(BuildBase(elements));
  }
  if (retain_base_elements()) {
    base_elements_ = elements;
    std::sort(base_elements_.begin(), base_elements_.end(),
              [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
                return a.id < b.id;
              });
  }
  built_ = true;
  // The initial version: empty delta at epoch 0, so a reader pinned at the
  // freshly built state always resolves.
  versions_.Reset(0, std::make_shared<const DeltaIndex>(delta_));
  published_revision_ = delta_.revision();
  return Status::OK();
}

Status BaseDeltaBackend::RangeQuery(const geom::Aabb& box,
                                    storage::PoolSet* pools,
                                    ResultVisitor& visitor,
                                    RangeStats* stats) const {
  return RangeQueryAt(storage::kLatestEpoch, box, pools, visitor, stats);
}

Status BaseDeltaBackend::KnnQuery(const geom::Vec3& point, size_t k,
                                  storage::PoolSet* pools,
                                  std::vector<geom::KnnHit>* hits,
                                  RangeStats* stats) const {
  return KnnQueryAt(storage::kLatestEpoch, point, k, pools, hits, stats);
}

Status BaseDeltaBackend::RangeQueryAt(storage::Epoch read_epoch,
                                      const geom::Aabb& box,
                                      storage::PoolSet* pools,
                                      ResultVisitor& visitor,
                                      RangeStats* stats) const {
  NEURODB_RETURN_NOT_OK(RequireBuilt("RangeQuery"));
  if (read_epoch == storage::kLatestEpoch) {
    return RangeQueryView(read_epoch, delta_, box, pools, visitor, stats);
  }
  auto snap = versions_.At(read_epoch);
  NEURODB_RETURN_NOT_OK(snap.status());
  return RangeQueryView(read_epoch, **snap, box, pools, visitor, stats);
}

Status BaseDeltaBackend::KnnQueryAt(storage::Epoch read_epoch,
                                    const geom::Vec3& point, size_t k,
                                    storage::PoolSet* pools,
                                    std::vector<geom::KnnHit>* hits,
                                    RangeStats* stats) const {
  NEURODB_RETURN_NOT_OK(RequireBuilt("KnnQuery"));
  if (read_epoch == storage::kLatestEpoch) {
    return KnnQueryView(read_epoch, delta_, point, k, pools, hits, stats);
  }
  auto snap = versions_.At(read_epoch);
  NEURODB_RETURN_NOT_OK(snap.status());
  return KnnQueryView(read_epoch, **snap, point, k, pools, hits, stats);
}

Status BaseDeltaBackend::RangeQueryView(storage::Epoch read_epoch,
                                        const DeltaIndex& view,
                                        const geom::Aabb& box,
                                        storage::PoolSet* pools,
                                        ResultVisitor& visitor,
                                        RangeStats* stats) const {
  if (view.Empty()) {
    if (base_empty_) return Status::OK();
    return BaseRangeQuery(read_epoch, box, pools, visitor, stats);
  }

  geom::ElementVec merged;
  if (!base_empty_) {
    CollectingVisitor base_out;
    NEURODB_RETURN_NOT_OK(
        BaseRangeQuery(read_epoch, box, pools, base_out, stats));
    merged = base_out.TakeElements();
  }
  view.Overlay(box, &merged);

  for (const geom::SpatialElement& e : merged) visitor.Visit(e.id, e.bounds);
  if (stats != nullptr) {
    stats->results = merged.size();
    // The insert scan is the delta's whole cost model: memory-resident,
    // no page I/O, but each insert is a candidate tested against the box.
    stats->elements_scanned += view.InsertCount();
  }
  return Status::OK();
}

Status BaseDeltaBackend::KnnQueryView(storage::Epoch read_epoch,
                                      const DeltaIndex& view,
                                      const geom::Vec3& point, size_t k,
                                      storage::PoolSet* pools,
                                      std::vector<geom::KnnHit>* hits,
                                      RangeStats* stats) const {
  // The read-only fast path delegates wholesale (hook validation applies).
  if (view.Empty() && !base_empty_) {
    return BaseKnnQuery(read_epoch, point, k, pools, hits, stats);
  }

  if (hits == nullptr) {
    return Status::InvalidArgument(std::string(name()) +
                                   "::KnnQuery: null output");
  }
  if (!geom::IsFinitePoint(point)) {
    return Status::InvalidArgument(std::string(name()) +
                                   "::KnnQuery: non-finite point");
  }
  if (k == 0) {
    hits->clear();
    return Status::OK();
  }

  // Each ask of the base is charged to `stats`: a re-ask adds its pages
  // and pool tally to the earlier ones'.
  auto base_knn = [&](size_t ask, std::vector<geom::KnnHit>* base_hits) {
    base_hits->clear();
    if (base_empty_) return Status::OK();
    RangeStats attempt;
    NEURODB_RETURN_NOT_OK(BaseKnnQuery(read_epoch, point, ask, pools,
                                       base_hits,
                                       stats != nullptr ? &attempt : nullptr));
    if (stats != nullptr) {
      stats->pages_read += attempt.pages_read;
      stats->elements_scanned += attempt.elements_scanned;
      stats->pool += attempt.pool;
      stats->nodes_per_level.resize(std::max(stats->nodes_per_level.size(),
                                             attempt.nodes_per_level.size()));
      for (size_t level = 0; level < attempt.nodes_per_level.size(); ++level) {
        stats->nodes_per_level[level] += attempt.nodes_per_level[level];
      }
    }
    return Status::OK();
  };
  NEURODB_RETURN_NOT_OK(view.MergeKnn(point, k, base_knn, hits));
  if (stats != nullptr) {
    stats->results = hits->size();
    stats->elements_scanned += view.InsertCount();
  }
  return Status::OK();
}

Status BaseDeltaBackend::InsertPending(geom::ElementId id,
                                       const geom::Aabb& bounds) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Insert"));
  delta_.Insert(id, bounds);
  return Status::OK();
}

Status BaseDeltaBackend::ErasePending(geom::ElementId id) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Erase"));
  delta_.Erase(id);
  return Status::OK();
}

Status BaseDeltaBackend::MovePending(geom::ElementId id,
                                     const geom::Aabb& bounds) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Move"));
  delta_.Move(id, bounds);
  return Status::OK();
}

Status BaseDeltaBackend::Insert(geom::ElementId id, const geom::Aabb& bounds) {
  NEURODB_RETURN_NOT_OK(InsertPending(id, bounds));
  RepublishLatest();
  return Status::OK();
}

Status BaseDeltaBackend::Erase(geom::ElementId id) {
  NEURODB_RETURN_NOT_OK(ErasePending(id));
  RepublishLatest();
  return Status::OK();
}

Status BaseDeltaBackend::Move(geom::ElementId id, const geom::Aabb& bounds) {
  NEURODB_RETURN_NOT_OK(MovePending(id, bounds));
  RepublishLatest();
  return Status::OK();
}

Status BaseDeltaBackend::ApplyBatch(const std::vector<UpdateRequest>& updates,
                                    storage::Epoch epoch) {
  for (const auto& u : updates) {
    Status s;
    switch (u.kind) {
      case UpdateKind::kInsert:
        s = InsertPending(u.id, u.bounds);
        break;
      case UpdateKind::kErase:
        s = ErasePending(u.id);
        break;
      case UpdateKind::kMove:
        s = MovePending(u.id, u.bounds);
        break;
    }
    NEURODB_RETURN_NOT_OK(s);
  }
  PublishVersion(epoch);
  return Status::OK();
}

void BaseDeltaBackend::PublishVersion(storage::Epoch epoch) {
  if (versions_.NumVersions() > 0 &&
      delta_.revision() == published_revision_) {
    // Nothing changed since the last publish: the older version already
    // describes this epoch's state (At() resolves by epoch <= E).
    return;
  }
  versions_.Publish(epoch, std::make_shared<const DeltaIndex>(delta_));
  published_revision_ = delta_.revision();
}

void BaseDeltaBackend::RepublishLatest() {
  if (versions_.NumVersions() > 0 &&
      delta_.revision() == published_revision_) {
    return;
  }
  versions_.Republish(std::make_shared<const DeltaIndex>(delta_));
  published_revision_ = delta_.revision();
}

Status BaseDeltaBackend::ReplaceBase(geom::ElementVec elements) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("ReplaceBase"));
  NEURODB_RETURN_NOT_OK(ResetBase());
  base_empty_ = elements.empty();
  if (!base_empty_) {
    NEURODB_RETURN_NOT_OK(BuildBase(elements));
  }
  if (retain_base_elements()) {
    base_elements_ = std::move(elements);
  } else {
    base_elements_.clear();
  }
  delta_.Clear();
  // Published versions describe states the rebuilt base cannot reproduce.
  ResetDeltaVersions();
  return Status::OK();
}

Status BaseDeltaBackend::Compact() {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Compact"));
  if (delta_.Empty()) return Status::OK();
  return ReplaceBase(LiveElements());
}

}  // namespace engine
}  // namespace neurodb
