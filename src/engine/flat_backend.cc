#include "engine/flat_backend.h"

namespace neurodb {
namespace engine {

Status FlatBackend::BuildBase(const geom::ElementVec& elements) {
  NEURODB_ASSIGN_OR_RETURN(flat::FlatIndex index,
                           flat::FlatIndex::Build(elements, store_, options_));
  index_.emplace(std::move(index));
  return Status::OK();
}

Status FlatBackend::ResetBase() {
  index_.reset();
  store_->Reset();
  return Status::OK();
}

Status FlatBackend::BaseRangeQuery(storage::Epoch /*read_epoch*/,
                                   const geom::Aabb& box,
                                   storage::PoolSet* pools,
                                   ResultVisitor& visitor,
                                   RangeStats* stats) const {
  storage::BufferPool* pool = pools != nullptr ? pools->pool(0) : nullptr;
  flat::FlatQueryStats flat_stats;
  NEURODB_RETURN_NOT_OK(index_->RangeQuery(box, pool, visitor, &flat_stats));
  if (stats != nullptr) {
    stats->pages_read = flat_stats.data_pages_read;
    stats->results = flat_stats.results;
    stats->elements_scanned = flat_stats.elements_scanned;
    stats->pool = flat_stats.pool;
  }
  return Status::OK();
}

Status FlatBackend::BaseKnnQuery(storage::Epoch /*read_epoch*/,
                                 const geom::Vec3& point, size_t k,
                                 storage::PoolSet* pools,
                                 std::vector<geom::KnnHit>* hits,
                                 RangeStats* stats) const {
  storage::BufferPool* pool = pools != nullptr ? pools->pool(0) : nullptr;
  flat::FlatQueryStats flat_stats;
  NEURODB_RETURN_NOT_OK(index_->Knn(point, k, pool, hits, &flat_stats));
  if (stats != nullptr) {
    stats->pages_read = flat_stats.data_pages_read;
    stats->results = flat_stats.results;
    stats->elements_scanned = flat_stats.elements_scanned;
    stats->pool = flat_stats.pool;
  }
  return Status::OK();
}

BackendStats FlatBackend::Stats() const {
  BackendStats stats;
  if (index_.has_value()) {
    stats.index_pages = index_->NumPages();
    stats.metadata_bytes = index_->MetadataBytes() + MutationMetadataBytes();
  }
  stats.io = IoTotals();
  return stats;
}

}  // namespace engine
}  // namespace neurodb
