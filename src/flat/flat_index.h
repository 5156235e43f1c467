// NeuroDB — FlatIndex: FLAT range query execution for dense spatial data.
//
// Reproduces FLAT (Tauheed et al., ICDE'12; paper Section 2.1). The index
// has two parts:
//
//  * crawl pages — the dataset packed onto disk pages in a space-filling
//    order, plus a *neighborhood graph* linking pages whose MBRs intersect
//    ("information ... describing what spatial elements neighbor each
//    other");
//  * a small memory-resident *seed index* — an STR-packed R-tree over the
//    page MBRs, used to find one page intersecting the query (and, for
//    kNN, to browse the pages in distance order).
//
// Query execution: (1) seed phase — descend the seed tree to an arbitrary
// page intersecting the range (cost ~ tree height, density independent);
// (2) crawl phase — breadth-first walk of the neighborhood graph restricted
// to pages whose MBR intersects the range, reading exactly the data pages
// that contribute results (cost ~ result size, density independent).
//
// Completeness: the crawl reaches every intersecting page iff the page-MBR
// intersection graph restricted to the range is connected — true on the
// dense continuous tissue models FLAT targets. For arbitrary data the
// optional *rescue* pass (on by default) scans the memory-resident seed
// tree for unvisited intersecting pages and re-seeds the crawl, making
// results exact while leaving the disk-page I/O unchanged (every
// intersecting page is read exactly once either way). DESIGN.md Section 3
// discusses the trade-off; bench/ablation_flat_pages quantifies it.
//
// kNN is the same idea in distance form: browse the seed tree's page MBRs
// best-first by MINDIST (Hjaltason & Samet, TODS 1999) and read only the
// pages that can hold one of the k nearest elements.

#ifndef NEURODB_FLAT_FLAT_INDEX_H_
#define NEURODB_FLAT_FLAT_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/knn.h"
#include "geom/visitor.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/pagination.h"

namespace neurodb {
namespace flat {

/// Build-time options.
struct FlatOptions {
  /// Elements per crawl page (253 elements ~ one 8 KiB page).
  size_t elems_per_page = 253;
  /// Physical pack order of the crawl pages.
  storage::PackOrder pack = storage::PackOrder::kHilbert;
  /// Guarantee completeness on sparse / disconnected data (see header).
  bool rescue = true;

  Status Validate() const;
};

/// Per-query instrumentation (the demo's live FLAT panel, Figure 3).
struct FlatQueryStats {
  /// Crawl data pages fetched from disk — the headline I/O metric.
  uint64_t data_pages_read = 0;
  /// Seed-tree nodes visited in the seed phase (memory resident).
  uint64_t seed_nodes_visited = 0;
  /// Seed-tree nodes visited by the rescue completeness check.
  uint64_t rescue_nodes_visited = 0;
  /// Pages dequeued by the crawl (== data_pages_read).
  uint64_t crawl_steps = 0;
  /// Crawls started beyond the first seed (0 on connected/dense ranges).
  uint64_t extra_seeds = 0;
  /// kNN only: searches run — 1 per search (the best-first browse has no
  /// rings; the field stays for the benchmark's per-layer catalog).
  uint64_t knn_rings = 0;
  /// Elements scanned on fetched pages.
  uint64_t elements_scanned = 0;
  uint64_t results = 0;
  /// This query's buffer-pool hits, misses and evictions (its Fetch tally).
  storage::PoolCounters pool;
};

/// The FLAT index. Build once over a dataset; query through a BufferPool.
class FlatIndex {
 public:
  /// Paginate `elements` into `store` and build the neighborhood graph and
  /// seed tree.
  static Result<FlatIndex> Build(const geom::ElementVec& elements,
                                 storage::PageStore* store,
                                 FlatOptions options = FlatOptions());

  FlatIndex(FlatIndex&&) = default;
  FlatIndex& operator=(FlatIndex&&) = default;

  /// Range query: streams each element intersecting `box` to `visitor`.
  /// Data pages are fetched through `pool` (this is the disk I/O).
  Status RangeQuery(const geom::Aabb& box, storage::BufferPool* pool,
                    geom::ResultVisitor& visitor,
                    FlatQueryStats* stats = nullptr) const;

  /// Legacy materializing form: appends matching ids to `out`.
  Status RangeQuery(const geom::Aabb& box, storage::BufferPool* pool,
                    std::vector<geom::ElementId>* out,
                    FlatQueryStats* stats = nullptr) const;

  /// Like RangeQuery, and additionally records the order in which crawl
  /// pages were visited (the demo's crawl-order visualization, Figure 4).
  Status RangeQueryTraced(const geom::Aabb& box, storage::BufferPool* pool,
                          geom::ResultVisitor& visitor,
                          std::vector<uint32_t>* page_visit_order,
                          FlatQueryStats* stats = nullptr) const;

  /// Legacy materializing form of RangeQueryTraced.
  Status RangeQueryTraced(const geom::Aabb& box, storage::BufferPool* pool,
                          std::vector<geom::ElementId>* out,
                          std::vector<uint32_t>* page_visit_order,
                          FlatQueryStats* stats = nullptr) const;

  /// k nearest neighbours of `p` by box distance, ties broken by id (the
  /// library-wide order of geom/knn.h). Distance browsing over the
  /// memory-resident seed tree (rtree::RTree::BrowseKnn): pages are fetched
  /// through `pool` in ascending MINDIST to `p`, and exactly the pages whose
  /// MINDIST is at most the k-th hit's distance are read. `hits` is cleared
  /// and filled ascending. k == 0 yields an empty answer; k larger than the
  /// dataset yields every element.
  Status Knn(const geom::Vec3& p, size_t k, storage::BufferPool* pool,
             std::vector<geom::KnnHit>* hits,
             FlatQueryStats* stats = nullptr) const;

  /// Pages (as indexes into page order) whose MBR intersects `box`,
  /// ascending. Memory-only (seed tree).
  std::vector<uint32_t> PagesInRange(const geom::Aabb& box) const;

  /// PagesInRange of every box in `boxes`, from one pass over the seed
  /// tree per 64 boxes: each node is tested against the union of the boxes
  /// that reach it before the boxes one by one. (*pages)[i] is cleared and
  /// filled with box i's pages, ascending. The prefetchers translate a
  /// step's predicted boxes into page prefetches this way.
  void PagesInRanges(std::span<const geom::Aabb> boxes,
                     std::vector<std::vector<uint32_t>>* pages) const;

  size_t NumPages() const { return page_ids_.size(); }
  storage::PageId PageAt(uint32_t index) const { return page_ids_[index]; }
  const geom::Aabb& PageBounds(uint32_t index) const {
    return page_bounds_[index];
  }
  const std::vector<uint32_t>& NeighborsOf(uint32_t index) const {
    return neighbors_[index];
  }
  const geom::Aabb& domain() const { return domain_; }
  const rtree::RTree& seed_tree() const { return seed_tree_; }
  const FlatOptions& options() const { return options_; }

  /// Bytes of memory-resident metadata (seed tree + neighborhood lists) —
  /// FLAT's in-memory footprint, tiny relative to the data.
  size_t MetadataBytes() const;

  /// Structural checks: neighbor symmetry, no self-loops, neighbor MBRs
  /// intersect, seed tree covers every page.
  Status CheckInvariants() const;

 private:
  FlatIndex() = default;

  Status CrawlFrom(uint32_t start, const geom::Aabb& box,
                   storage::BufferPool* pool, geom::ResultVisitor& visitor,
                   std::vector<char>* visited,
                   std::vector<uint32_t>* visit_order,
                   FlatQueryStats* stats) const;

  std::vector<storage::PageId> page_ids_;
  std::vector<geom::Aabb> page_bounds_;
  std::vector<std::vector<uint32_t>> neighbors_;
  geom::Aabb domain_;
  rtree::RTree seed_tree_{rtree::RTreeOptions{}};
  FlatOptions options_;
};

}  // namespace flat
}  // namespace neurodb

#endif  // NEURODB_FLAT_FLAT_INDEX_H_
