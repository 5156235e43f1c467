#include "engine/rtree_backend.h"

namespace neurodb {
namespace engine {

Status PagedRTreeBackend::BuildBase(const geom::ElementVec& elements) {
  NEURODB_ASSIGN_OR_RETURN(rtree::RTree tree,
                           rtree::RTree::Build(elements, options_));
  NEURODB_ASSIGN_OR_RETURN(rtree::PagedRTree paged,
                           rtree::PagedRTree::Build(std::move(tree), store_));
  tree_.emplace(std::move(paged));
  return Status::OK();
}

Status PagedRTreeBackend::ResetBase() {
  tree_.reset();
  store_->Reset();
  return Status::OK();
}

Status PagedRTreeBackend::BaseRangeQuery(storage::Epoch /*read_epoch*/,
                                         const geom::Aabb& box,
                                         storage::PoolSet* pools,
                                         ResultVisitor& visitor,
                                         RangeStats* stats) const {
  storage::BufferPool* pool = pools != nullptr ? pools->pool(0) : nullptr;
  rtree::QueryStats tree_stats;
  NEURODB_RETURN_NOT_OK(tree_->RangeQuery(box, visitor, pool, &tree_stats));
  if (stats != nullptr) {
    stats->pages_read = tree_stats.nodes_visited;
    stats->results = tree_stats.results;
    stats->elements_scanned = tree_stats.entries_tested;
    stats->nodes_per_level = std::move(tree_stats.nodes_per_level);
    stats->pool = tree_stats.pool;
  }
  return Status::OK();
}

Status PagedRTreeBackend::BaseKnnQuery(storage::Epoch /*read_epoch*/,
                                       const geom::Vec3& point, size_t k,
                                       storage::PoolSet* pools,
                                       std::vector<geom::KnnHit>* hits,
                                       RangeStats* stats) const {
  storage::BufferPool* pool = pools != nullptr ? pools->pool(0) : nullptr;
  rtree::QueryStats tree_stats;
  NEURODB_RETURN_NOT_OK(tree_->Knn(point, k, pool, hits, &tree_stats));
  if (stats != nullptr) {
    stats->pages_read = tree_stats.nodes_visited;
    stats->results = tree_stats.results;
    stats->elements_scanned = tree_stats.entries_tested;
    stats->nodes_per_level = std::move(tree_stats.nodes_per_level);
    stats->pool = tree_stats.pool;
  }
  return Status::OK();
}

BackendStats PagedRTreeBackend::Stats() const {
  BackendStats stats;
  if (tree_.has_value()) {
    stats.index_pages = tree_->NumPages();
    stats.metadata_bytes = tree_->tree().MemoryBytes() +
                           MutationMetadataBytes();
  }
  stats.io = IoTotals();
  return stats;
}

}  // namespace engine
}  // namespace neurodb
