// NeuroDB — PagedRTreeBackend: the disk-resident R-tree as a QueryEngine
// backend (the paper's comparison baseline).

#ifndef NEURODB_ENGINE_RTREE_BACKEND_H_
#define NEURODB_ENGINE_RTREE_BACKEND_H_

#include <vector>

#include "engine/backend.h"
#include "rtree/paged_rtree.h"

namespace neurodb {
namespace engine {

/// Adapter wrapping rtree::PagedRTree: an STR-packed tree at full fill, one
/// disk page per tree node and no node kept in memory, every visited node
/// charged as one page fetch. Updates are merged over the tree at read
/// time; Rebuild (at Compact) packs a new tree over the next base
/// generation rather than updating nodes in place.
class PagedRTreeBackend : public SpatialBackend {
 public:
  explicit PagedRTreeBackend(rtree::RTreeOptions options = rtree::RTreeOptions())
      : options_(options) {}

  const char* name() const override { return "R-Tree"; }

  BackendStats Stats() const override;

  /// The wrapped paged tree (empty before Build and for an empty base).
  const rtree::PagedRTree& tree() const { return tree_; }

  const rtree::RTreeOptions& options() const { return options_; }

 protected:
  Status BuildBase(const geom::ElementVec& elements) override;
  Status ResetBase() override;
  Status BaseRangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                        ResultVisitor& visitor,
                        RangeStats* stats) const override;
  Status BaseKnnQuery(const geom::Vec3& point, size_t k,
                      storage::PoolSet* pools,
                      std::vector<geom::KnnHit>* hits,
                      RangeStats* stats) const override;

 private:
  rtree::RTreeOptions options_;
  rtree::PagedRTree tree_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_RTREE_BACKEND_H_
