// NeuroDB — GridBackend: an in-memory uniform grid as a QueryEngine backend.
//
// The grid is deliberately the *simplest possible* spatial index: partition
// the domain into equal cells, assign every element to the cell of its
// bounding-box center, pack the cells onto disk pages cell-major. Range
// queries scan the cell block around the query (widened by the largest
// element half-extent, so center assignment stays exact); kNN browses an
// in-memory R-tree over the data pages' MBRs best-first by MINDIST
// (rtree::RTree::BrowseKnn, the same search as FLAT's) and reads only the
// pages that can hold one of the k nearest (KnnScanQuery keeps the
// exhaustive scan as the test oracle). The grid's job is to be a cheap,
// independent voice in BackendChoice::kAll parity comparisons: its range
// path is so different from FLAT's crawl and the R-tree's hierarchy that a
// bug in either is very unlikely to be mirrored here (the
// differential-testing harness in tests/diff_harness.h leans on exactly
// this). Its kNN shares the browse with FLAT, so kNN parity also leans on
// the brute-force oracles.

#ifndef NEURODB_ENGINE_GRID_BACKEND_H_
#define NEURODB_ENGINE_GRID_BACKEND_H_

#include <array>
#include <cstdint>
#include <vector>

#include "engine/base_delta_backend.h"
#include "rtree/rtree.h"

namespace neurodb {
namespace engine {

/// Grid tuning. The resolution is derived from the dataset: roughly
/// `target_per_cell` elements per occupied cell, capped per axis.
struct GridOptions {
  /// Elements per data page (253 elements ~ one 8 KiB page, as FLAT).
  size_t elems_per_page = 253;
  /// Target average elements per cell — drives cells-per-axis.
  size_t target_per_cell = 64;
  /// Hard cap on cells per axis (keeps cell metadata bounded).
  size_t max_cells_per_dim = 64;

  Status Validate() const;
};

/// Uniform-grid backend. Elements live in exactly one cell (chosen by
/// bounding-box center); queries compensate by widening the examined cell
/// block by the largest element half-extent seen at build time. Mutation
/// rides the inherited base+delta protocol; Compact() re-grids the merged
/// element set in place (same PageStore object, fresh pages).
class GridBackend : public BaseDeltaBackend {
 public:
  explicit GridBackend(GridOptions options = GridOptions())
      : options_(options) {}

  const char* name() const override { return "Grid"; }

  /// The exhaustive page scan over the *base* layout, kept as the
  /// brute-force oracle the page-tree browse is tested against (and a
  /// deliberately index-free parity voice for targeted tests). Base-only:
  /// pending delta records are not merged in.
  Status KnnScanQuery(const geom::Vec3& point, size_t k,
                      storage::PoolSet* pools,
                      std::vector<geom::KnnHit>* hits,
                      RangeStats* stats = nullptr) const;

  BackendStats Stats() const override;

  const GridOptions& options() const { return options_; }
  /// Cells per axis chosen at build time (x, y, z).
  const std::array<uint32_t, 3>& dims() const { return dims_; }
  size_t NumCells() const {
    return static_cast<size_t>(dims_[0]) * dims_[1] * dims_[2];
  }
  /// Cell edge lengths chosen at build time (advisor cost model).
  const geom::Vec3& cell_size() const { return cell_size_; }
  /// Largest element half-extent per axis — the query widening margin.
  const geom::Vec3& max_half_extent() const { return max_half_extent_; }

 protected:
  Status BuildBase(const geom::ElementVec& elements) override;
  Status ResetBase() override;
  Status BaseRangeQuery(storage::Epoch read_epoch, const geom::Aabb& box,
                        storage::PoolSet* pools, ResultVisitor& visitor,
                        RangeStats* stats) const override;
  /// Distance browsing over page_tree_: pages in ascending MINDIST to the
  /// point, stopping once the k-th best distance is below the next key.
  Status BaseKnnQuery(storage::Epoch read_epoch, const geom::Vec3& point,
                      size_t k, storage::PoolSet* pools,
                      std::vector<geom::KnnHit>* hits,
                      RangeStats* stats) const override;

 private:
  /// Clamped cell coordinate of a point along one axis.
  uint32_t CellCoord(float v, int axis) const;
  /// Flat cell index of a point.
  size_t CellOf(const geom::Vec3& p) const;
  /// Validation shared by the browse and scan kNN entry points.
  Status ValidateKnn(storage::PoolSet* pools,
                     std::vector<geom::KnnHit>* hits,
                     const geom::Vec3& point) const;
  /// Fetch one page and offer every element to `acc`.
  Status ScanPage(size_t page_index, storage::BufferPool* pool,
                  const geom::Vec3& point, geom::KnnAccumulator* acc,
                  RangeStats* stats) const;

  GridOptions options_;

  geom::Aabb domain_;
  std::array<uint32_t, 3> dims_ = {1, 1, 1};
  geom::Vec3 cell_size_{1, 1, 1};
  /// Largest element half-extent per axis — the query widening margin.
  geom::Vec3 max_half_extent_{0, 0, 0};

  /// Element order is cell-major; cell c owns packed slots
  /// [cell_start_[c], cell_start_[c + 1]).
  std::vector<uint32_t> cell_start_;
  /// Data pages in pack order; packed slot s lives on page s / elems_per_page.
  std::vector<storage::PageId> page_ids_;
  /// STR tree over the data pages' MBRs; entry i is page i (kNN browse).
  rtree::RTree page_tree_;
  size_t num_elements_ = 0;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_GRID_BACKEND_H_
