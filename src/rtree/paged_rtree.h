// NeuroDB — PagedRTree: an R-tree whose nodes live only on simulated disk
// pages.
//
// The demo compares FLAT and the R-tree by "disk pages retrieved" (paper
// Figure 3). PagedRTree writes every node of an STR-packed RTree onto one
// page of a PageStore and then keeps no node in memory: a query fetches each
// node it visits through a BufferPool and reads the node's entries from the
// fetched page, so page counts and modeled time come out of the same
// machinery FLAT uses. What stays in memory is the page table, the root's
// id and bounds, the height, the element count and the level profile
// computed at build (as brepdb's RTree keeps a root id and per-level node
// counts over its storage manager).

#ifndef NEURODB_RTREE_PAGED_RTREE_H_
#define NEURODB_RTREE_PAGED_RTREE_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/knn.h"
#include "geom/visitor.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace neurodb {
namespace rtree {

/// Disk-resident R-tree.
class PagedRTree {
 public:
  /// Materialize `tree` into `store`: one page per node. Leaf pages hold the
  /// data entries; internal pages hold one (child-node-id, child-bounds)
  /// element per child, mirroring the branch-entry layout of a disk R-tree.
  /// The paged tree keeps no reference to `tree`.
  static Result<PagedRTree> Build(const RTree& tree, storage::PageStore* store);

  /// An empty tree: queries read nothing.
  PagedRTree() = default;
  PagedRTree(PagedRTree&&) = default;
  PagedRTree& operator=(PagedRTree&&) = default;

  /// Range query executed through `pool`: every visited node costs one page
  /// fetch. Each matching element is streamed to `visitor`.
  Status RangeQuery(const geom::Aabb& box, geom::ResultVisitor& visitor,
                    storage::BufferPool* pool,
                    QueryStats* stats = nullptr) const;

  /// Legacy materializing form: appends matching ids to `out`.
  Status RangeQuery(const geom::Aabb& box, std::vector<geom::ElementId>* out,
                    storage::BufferPool* pool,
                    QueryStats* stats = nullptr) const;

  /// k nearest neighbours of `p` by box distance, ties broken by id (the
  /// library-wide order of geom/knn.h). Best-first traversal (Hjaltason &
  /// Samet): nodes are expanded in increasing MBR distance, each expansion
  /// fetching the node's page through `pool`; the walk stops as soon as the
  /// nearest unexpanded node cannot improve the kth best hit. `hits` is
  /// cleared and filled ascending. k == 0 yields an empty answer; k larger
  /// than the dataset yields every element.
  Status Knn(const geom::Vec3& p, size_t k, storage::BufferPool* pool,
             std::vector<geom::KnnHit>* hits,
             QueryStats* stats = nullptr) const;

  /// Number of stored elements.
  size_t size() const { return size_; }

  /// Height in levels (1 for a single leaf root; 0 for an empty tree).
  int Height() const { return height_; }

  /// Pages occupied by the whole index (one per node).
  size_t NumPages() const { return node_pages_.size(); }

  /// The tree's per-level structure (RTree::LevelProfile), computed at
  /// build: index 0 = leaf level, empty for an empty tree.
  const std::vector<LevelStats>& LevelProfile() const { return levels_; }

  /// Main-memory footprint in bytes: the page table and the level profile.
  size_t MemoryBytes() const;

 private:
  std::vector<storage::PageId> node_pages_;  // indexed by node id
  int32_t root_ = -1;
  geom::Aabb root_bounds_;
  int height_ = 0;
  size_t size_ = 0;
  std::vector<LevelStats> levels_;
};

}  // namespace rtree
}  // namespace neurodb

#endif  // NEURODB_RTREE_PAGED_RTREE_H_
