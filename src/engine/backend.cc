#include "engine/backend.h"

#include <algorithm>

namespace neurodb {
namespace engine {

Status SpatialBackend::Build(const geom::ElementVec& elements) {
  if (built_) {
    return Status::AlreadyExists(std::string(name()) + ": already built");
  }
  NEURODB_RETURN_NOT_OK(BuildBase(elements));
  base_empty_ = elements.empty();
  built_ = true;
  return Status::OK();
}

Status SpatialBackend::Rebuild(const geom::ElementVec& elements) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Rebuild"));
  // Until BuildBase succeeds there is no base to query.
  base_empty_ = true;
  NEURODB_RETURN_NOT_OK(ResetBase());
  NEURODB_RETURN_NOT_OK(BuildBase(elements));
  base_empty_ = elements.empty();
  return Status::OK();
}

Result<std::shared_ptr<const DeltaIndex>> SpatialBackend::ResolveDelta(
    storage::Epoch read_epoch) const {
  if (live_set_ == nullptr) return std::shared_ptr<const DeltaIndex>();
  if (read_epoch == storage::kLatestEpoch) return live_set_->Latest().delta;
  return live_set_->At(read_epoch);
}

Status SpatialBackend::RangeQueryAt(storage::Epoch read_epoch,
                                    const geom::Aabb& box,
                                    storage::PoolSet* pools,
                                    ResultVisitor& visitor,
                                    RangeStats* stats) const {
  NEURODB_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaIndex> delta,
                           ResolveDelta(read_epoch));
  return RangeQueryView(delta.get(), box, pools, visitor, stats);
}

Status SpatialBackend::KnnQueryAt(storage::Epoch read_epoch,
                                  const geom::Vec3& point, size_t k,
                                  storage::PoolSet* pools,
                                  std::vector<geom::KnnHit>* hits,
                                  RangeStats* stats) const {
  NEURODB_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaIndex> delta,
                           ResolveDelta(read_epoch));
  return KnnQueryView(delta.get(), point, k, pools, hits, stats);
}

Status SpatialBackend::RangeQueryView(const DeltaIndex* delta,
                                      const geom::Aabb& box,
                                      storage::PoolSet* pools,
                                      ResultVisitor& visitor,
                                      RangeStats* stats) const {
  NEURODB_RETURN_NOT_OK(RequireBuilt("RangeQuery"));
  if (delta == nullptr || delta->Empty()) {
    if (base_empty_) return Status::OK();
    return BaseRangeQuery(box, pools, visitor, stats);
  }

  geom::ElementVec merged;
  if (!base_empty_) {
    CollectingVisitor base_out;
    NEURODB_RETURN_NOT_OK(BaseRangeQuery(box, pools, base_out, stats));
    merged = base_out.TakeElements();
  }
  delta->Overlay(box, &merged);

  for (const geom::SpatialElement& e : merged) visitor.Visit(e.id, e.bounds);
  if (stats != nullptr) {
    stats->results = merged.size();
    // The insert scan is the delta's whole cost model: memory-resident,
    // no page I/O, but each insert is a candidate tested against the box.
    stats->elements_scanned += delta->InsertCount();
  }
  return Status::OK();
}

Status SpatialBackend::KnnQueryView(const DeltaIndex* delta,
                                    const geom::Vec3& point, size_t k,
                                    storage::PoolSet* pools,
                                    std::vector<geom::KnnHit>* hits,
                                    RangeStats* stats) const {
  NEURODB_RETURN_NOT_OK(RequireBuilt("KnnQuery"));
  // The base-only fast path delegates wholesale (hook validation applies).
  const bool no_delta = delta == nullptr || delta->Empty();
  if (no_delta && !base_empty_) {
    return BaseKnnQuery(point, k, pools, hits, stats);
  }

  if (hits == nullptr) {
    return Status::InvalidArgument(std::string(name()) +
                                   "::KnnQuery: null output");
  }
  if (!geom::IsFinitePoint(point)) {
    return Status::InvalidArgument(std::string(name()) +
                                   "::KnnQuery: non-finite point");
  }
  hits->clear();
  if (k == 0 || no_delta) return Status::OK();

  // Each ask of the base is charged to `stats`: a re-ask adds its pages
  // and pool tally to the earlier ones'.
  auto base_knn = [&](size_t ask, std::vector<geom::KnnHit>* base_hits) {
    base_hits->clear();
    if (base_empty_) return Status::OK();
    RangeStats attempt;
    NEURODB_RETURN_NOT_OK(BaseKnnQuery(point, ask, pools, base_hits,
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
  NEURODB_RETURN_NOT_OK(delta->MergeKnn(
      point, k, base_knn, hits,
      stats != nullptr ? &stats->knn_reasks : nullptr));
  if (stats != nullptr) {
    stats->results = hits->size();
    stats->elements_scanned += delta->InsertCount();
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace neurodb
