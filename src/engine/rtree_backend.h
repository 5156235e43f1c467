// NeuroDB — PagedRTreeBackend: the disk-resident R-tree as a QueryEngine
// backend (the paper's comparison baseline).

#ifndef NEURODB_ENGINE_RTREE_BACKEND_H_
#define NEURODB_ENGINE_RTREE_BACKEND_H_

#include <optional>
#include <vector>

#include "engine/backend.h"
#include "rtree/paged_rtree.h"

namespace neurodb {
namespace engine {

/// Adapter wrapping rtree::PagedRTree: bulk load (STR, Hilbert, or dynamic
/// insertion per RTreeOptions::build), one disk page per tree node, every
/// visited node charged as one page fetch. Updates are merged over the tree
/// at read time; Rebuild builds the tree again through the same build path
/// over the next base generation rather than updating nodes in place.
class PagedRTreeBackend : public SpatialBackend {
 public:
  explicit PagedRTreeBackend(rtree::RTreeOptions options = rtree::RTreeOptions())
      : options_(options) {}

  const char* name() const override { return "R-Tree"; }

  BackendStats Stats() const override;

  /// The wrapped paged tree (tests and the compatibility shim).
  const rtree::PagedRTree& tree() const { return *tree_; }

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
  std::optional<rtree::PagedRTree> tree_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_RTREE_BACKEND_H_
