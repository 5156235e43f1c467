#include "engine/grid_backend.h"

#include <algorithm>
#include <cmath>

#include "storage/pagination.h"

namespace neurodb {
namespace engine {

using geom::Aabb;
using geom::Vec3;

Status GridOptions::Validate() const {
  if (elems_per_page == 0) {
    return Status::InvalidArgument("GridOptions: elems_per_page == 0");
  }
  if (target_per_cell == 0) {
    return Status::InvalidArgument("GridOptions: target_per_cell == 0");
  }
  if (max_cells_per_dim == 0) {
    return Status::InvalidArgument("GridOptions: max_cells_per_dim == 0");
  }
  return Status::OK();
}

uint32_t GridBackend::CellCoord(float v, int axis) const {
  float rel = (v - domain_.min[axis]) / cell_size_[axis];
  if (!(rel > 0.0f)) return 0;
  // Clamp before the cast: huge (but valid) query boxes would otherwise
  // overflow the float-to-uint32 conversion.
  if (rel >= static_cast<float>(dims_[axis])) return dims_[axis] - 1;
  return static_cast<uint32_t>(rel);
}

size_t GridBackend::CellOf(const Vec3& p) const {
  size_t cx = CellCoord(p.x, 0);
  size_t cy = CellCoord(p.y, 1);
  size_t cz = CellCoord(p.z, 2);
  return (cz * dims_[1] + cy) * dims_[0] + cx;
}

Status GridBackend::BuildBase(const geom::ElementVec& elements) {
  NEURODB_RETURN_NOT_OK(options_.Validate());

  num_elements_ = elements.size();
  domain_ = Aabb();
  for (const auto& e : elements) domain_.Extend(e.bounds);

  // Resolution: ~target_per_cell elements per cell, cubic cells, capped.
  size_t target_cells =
      std::max<size_t>(1, elements.size() / options_.target_per_cell);
  uint32_t per_dim = static_cast<uint32_t>(
      std::lround(std::cbrt(static_cast<double>(target_cells))));
  per_dim = std::clamp<uint32_t>(
      per_dim, 1, static_cast<uint32_t>(options_.max_cells_per_dim));
  dims_ = {per_dim, per_dim, per_dim};

  Vec3 extent = elements.empty() ? Vec3(1, 1, 1) : domain_.Extent();
  for (int axis = 0; axis < 3; ++axis) {
    float size = extent[axis] / static_cast<float>(dims_[axis]);
    cell_size_[axis] = size > 0.0f ? size : 1.0f;
  }

  max_half_extent_ = Vec3(0, 0, 0);
  for (const auto& e : elements) {
    Vec3 half = e.bounds.Extent() * 0.5f;
    max_half_extent_ =
        Vec3(std::max(max_half_extent_.x, half.x),
             std::max(max_half_extent_.y, half.y),
             std::max(max_half_extent_.z, half.z));
  }

  // Counting sort into cell-major order.
  std::vector<uint32_t> counts(NumCells() + 1, 0);
  for (const auto& e : elements) ++counts[CellOf(e.bounds.Center()) + 1];
  for (size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  cell_start_ = counts;  // counts is now the exclusive prefix sum

  std::vector<uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  geom::ElementVec packed(elements.size());
  for (const auto& e : elements) {
    packed[cursor[CellOf(e.bounds.Center())]++] = e;
  }

  // Pack the cell-major order onto pages (kInput keeps our order).
  NEURODB_ASSIGN_OR_RETURN(
      storage::Layout layout,
      storage::PaginateElements(packed, store_, options_.elems_per_page,
                                storage::PackOrder::kInput));
  page_ids_ = std::move(layout.page_ids);
  NEURODB_ASSIGN_OR_RETURN(page_tree_,
                           rtree::RTree::BulkLoadPages(layout.page_bounds));
  return Status::OK();
}

Status GridBackend::ResetBase() {
  domain_ = Aabb();
  dims_ = {1, 1, 1};
  cell_size_ = Vec3(1, 1, 1);
  max_half_extent_ = Vec3(0, 0, 0);
  cell_start_.clear();
  page_ids_.clear();
  page_tree_ = rtree::RTree();
  num_elements_ = 0;
  store_->Reset();
  return Status::OK();
}

Status GridBackend::BaseRangeQuery(storage::Epoch /*read_epoch*/,
                                   const Aabb& box, storage::PoolSet* pools,
                                   ResultVisitor& visitor,
                                   RangeStats* stats) const {
  if (pools == nullptr) {
    return Status::InvalidArgument("GridBackend::RangeQuery: null pool set");
  }
  storage::BufferPool* pool = pools->pool(0);
  if (page_ids_.empty() || !box.Intersects(domain_)) return Status::OK();

  // Any element intersecting `box` has its center — and therefore its cell —
  // inside `box` widened by the largest half-extent.
  uint32_t lo[3], hi[3];
  for (int axis = 0; axis < 3; ++axis) {
    lo[axis] = CellCoord(box.min[axis] - max_half_extent_[axis], axis);
    hi[axis] = CellCoord(box.max[axis] + max_half_extent_[axis], axis);
  }

  // Candidate pages: every page holding a slot of a cell in the block.
  // Pages are shared across cell boundaries, so dedup with a bitmap and
  // scan each page once; off-cell elements fail the bounds test.
  std::vector<char> wanted(page_ids_.size(), 0);
  for (uint32_t cz = lo[2]; cz <= hi[2]; ++cz) {
    for (uint32_t cy = lo[1]; cy <= hi[1]; ++cy) {
      for (uint32_t cx = lo[0]; cx <= hi[0]; ++cx) {
        size_t cell = (static_cast<size_t>(cz) * dims_[1] + cy) * dims_[0] + cx;
        uint32_t first = cell_start_[cell];
        uint32_t end = cell_start_[cell + 1];
        if (first == end) continue;
        size_t first_page = first / options_.elems_per_page;
        size_t last_page = (end - 1) / options_.elems_per_page;
        for (size_t page = first_page; page <= last_page; ++page) {
          wanted[page] = 1;
        }
      }
    }
  }

  for (size_t page_index = 0; page_index < page_ids_.size(); ++page_index) {
    if (!wanted[page_index]) continue;
    auto page = pool->Fetch(page_ids_[page_index],
                            stats != nullptr ? &stats->pool : nullptr);
    if (!page.ok()) return page.status();
    if (stats != nullptr) ++stats->pages_read;
    for (const auto& e : (*page)->elements) {
      if (stats != nullptr) ++stats->elements_scanned;
      if (e.bounds.Intersects(box)) {
        visitor.Visit(e.id, e.bounds);
        if (stats != nullptr) ++stats->results;
      }
    }
  }
  return Status::OK();
}

Status GridBackend::ValidateKnn(storage::PoolSet* pools,
                                std::vector<geom::KnnHit>* hits,
                                const Vec3& point) const {
  if (!built_) {
    return Status::InvalidArgument("GridBackend: not built");
  }
  if (pools == nullptr) {
    return Status::InvalidArgument("GridBackend::KnnQuery: null pool set");
  }
  if (hits == nullptr) {
    return Status::InvalidArgument("GridBackend::KnnQuery: null output");
  }
  if (!geom::IsFinitePoint(point)) {
    return Status::InvalidArgument("GridBackend::KnnQuery: non-finite point");
  }
  return Status::OK();
}

Status GridBackend::ScanPage(size_t page_index, storage::BufferPool* pool,
                             const Vec3& point, geom::KnnAccumulator* acc,
                             RangeStats* stats) const {
  auto page = pool->Fetch(page_ids_[page_index],
                          stats != nullptr ? &stats->pool : nullptr);
  if (!page.ok()) return page.status();
  if (stats != nullptr) ++stats->pages_read;
  for (const auto& e : (*page)->elements) {
    if (stats != nullptr) ++stats->elements_scanned;
    acc->Offer(e.id, geom::KnnDistance(point, e.bounds));
  }
  return Status::OK();
}

Status GridBackend::BaseKnnQuery(storage::Epoch /*read_epoch*/,
                                 const Vec3& point, size_t k,
                                 storage::PoolSet* pools,
                                 std::vector<geom::KnnHit>* hits,
                                 RangeStats* stats) const {
  NEURODB_RETURN_NOT_OK(ValidateKnn(pools, hits, point));
  storage::BufferPool* pool = pools->pool(0);
  NEURODB_RETURN_NOT_OK(page_tree_.BrowseKnn(
      point, k,
      [&](const geom::SpatialElement& entry, geom::KnnAccumulator* acc) {
        return ScanPage(entry.id, pool, point, acc, stats);
      },
      hits));
  if (stats != nullptr) stats->results = hits->size();
  return Status::OK();
}

Status GridBackend::KnnScanQuery(const Vec3& point, size_t k,
                                 storage::PoolSet* pools,
                                 std::vector<geom::KnnHit>* hits,
                                 RangeStats* stats) const {
  NEURODB_RETURN_NOT_OK(ValidateKnn(pools, hits, point));
  hits->clear();
  if (k == 0) return Status::OK();
  storage::BufferPool* pool = pools->pool(0);

  // Exhaustive scan: every page, every element. Deliberately index-free so
  // the answer cannot share a traversal bug with the page-tree browse (or
  // with FLAT and the R-tree).
  geom::KnnAccumulator acc(k);
  for (size_t page_index = 0; page_index < page_ids_.size(); ++page_index) {
    NEURODB_RETURN_NOT_OK(ScanPage(page_index, pool, point, &acc, stats));
  }
  *hits = acc.TakeSorted();
  if (stats != nullptr) stats->results = hits->size();
  return Status::OK();
}

BackendStats GridBackend::Stats() const {
  BackendStats stats;
  if (built_) {
    stats.index_pages = page_ids_.size();
    stats.metadata_bytes = cell_start_.capacity() * sizeof(uint32_t) +
                           page_ids_.capacity() * sizeof(storage::PageId) +
                           page_tree_.MemoryBytes() + MutationMetadataBytes();
  }
  stats.io = IoTotals();
  return stats;
}

}  // namespace engine
}  // namespace neurodb
