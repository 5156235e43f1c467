// NeuroDB — RTree: in-memory R-tree over 3-D bounding boxes.
//
// This is the baseline index of the paper ("Many indexes have been developed
// in the past to execute spatial range queries [...] they fail to do so on
// dense datasets", Section 2) and a building block of FLAT (seed index) and
// TOUCH/S3 (hierarchical partitioning / synchronized traversal).
//
// Supported construction paths:
//   * dynamic insertion with Guttman-quadratic or R*-style node splits,
//   * STR bulk loading (Leutenegger et al., ICDE'97 — the loader FLAT uses),
//   * Hilbert-sort bulk loading.
//
// Deletion is intentionally out of scope: the paper's workloads are
// build-once / analyze-many scientific models (see README "Scope").
//
// The node array is public (root(), node()) so that other components can
// layer behaviour on the same structure: PagedRTree charges page I/O per
// node visit, and the S3 spatial join traverses two trees in lockstep.

#ifndef NEURODB_RTREE_RTREE_H_
#define NEURODB_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/knn.h"
#include "geom/vec3.h"
#include "storage/page.h"

namespace neurodb {
namespace rtree {

/// Node-split algorithm used on overflow during dynamic insertion.
enum class SplitAlgorithm {
  /// Guttman's quadratic split (SIGMOD'84).
  kQuadratic,
  /// R*-tree split (Beckmann et al., SIGMOD'90): choose the split axis by
  /// minimum margin sum, then the distribution by minimum overlap.
  kRStar,
};

/// Construction path used by RTree::Build (and the paged backend's
/// Build/Compact rebuilds).
enum class BuildAlgorithm {
  /// Sort-Tile-Recursive packing (Leutenegger et al., ICDE'97).
  kStrBulk,
  /// Hilbert-curve sort of element centers, packed into runs.
  kHilbertBulk,
  /// One-at-a-time insertion through the configured split algorithm.
  kDynamicInsert,
};

/// Tuning knobs for RTree.
struct RTreeOptions {
  /// Maximum entries (or children) per node. 102 entries ≈ one 4 KiB page
  /// of 40-byte branch entries; the default 64 mirrors common configs.
  size_t max_entries = 64;
  /// Minimum fill on split; must be <= max_entries / 2.
  size_t min_entries = 26;
  /// Capacity of leaf nodes; 0 means "same as max_entries". TOUCH uses
  /// large data leaves under a narrower internal fanout.
  size_t leaf_capacity = 0;
  SplitAlgorithm split = SplitAlgorithm::kRStar;
  /// Construction path taken by Build() (the paged backend routes its
  /// Build / Compact rebuilds through this).
  BuildAlgorithm build = BuildAlgorithm::kStrBulk;
  /// Bulk-load pack fraction in (0, 1]: each packed node receives
  /// round(fill_factor * capacity) entries (clamped to [min_entries,
  /// capacity]). 1.0 reproduces the historical fully-packed layout;
  /// lower values leave headroom for subsequent dynamic inserts.
  double fill_factor = 1.0;
  /// R* forced reinsertion (Beckmann et al. §4.3): on the first overflow
  /// per level per insert, instead of splitting, evict this fraction of
  /// the node's entries (the ones farthest from the node center) and
  /// re-insert them closest-first. 0 disables. Only active with
  /// SplitAlgorithm::kRStar.
  double reinsert_factor = 0.3;

  size_t LeafCapacity() const {
    return leaf_capacity == 0 ? max_entries : leaf_capacity;
  }

  /// Entries packed per leaf / internal node by the bulk loaders after
  /// applying fill_factor.
  size_t PackedLeafCapacity() const;
  size_t PackedFanout() const;

  Status Validate() const;
};

/// Per-level structural profile (level 0 = leaves). Feeds the backend
/// advisor's cost model, `ndb_inspect tree`, and the micro_rtree bench.
struct LevelStats {
  int level = 0;
  size_t nodes = 0;
  /// Data entries (leaf level) or child slots (internal levels).
  size_t entries = 0;
  /// Per-node capacity at this level.
  size_t capacity = 0;
  /// entries / (nodes * capacity).
  double mean_fill = 0.0;
  /// Σ node-MBR volume.
  double total_volume = 0.0;
  /// Σ over nodes of (ex*ey + ey*ez + ez*ex) — the face-area term of the
  /// Kamel–Faloutsos expected-node-access formula.
  double sum_face_area = 0.0;
  /// Σ over nodes of (ex + ey + ez).
  double sum_extent = 0.0;
  /// Σ pairwise overlap volume between node MBRs at this level. Estimated
  /// from a deterministic sample when the level is large (see
  /// overlap_sampled).
  double overlap_volume = 0.0;
  bool overlap_sampled = false;
};

/// Per-query instrumentation (the demo shows "for the R-Tree how many nodes
/// are retrieved on each level", paper Section 2.2).
struct QueryStats {
  uint64_t nodes_visited = 0;
  uint64_t entries_tested = 0;
  uint64_t results = 0;
  /// nodes_per_level[l] = nodes visited at level l (0 = leaf level).
  std::vector<uint64_t> nodes_per_level;
  /// PagedRTree queries: this query's buffer-pool hits, misses and
  /// evictions (its Fetch tally). Zero for in-memory traversals.
  storage::PoolCounters pool;

  void CountNode(int level) {
    ++nodes_visited;
    if (nodes_per_level.size() <= static_cast<size_t>(level)) {
      nodes_per_level.resize(level + 1, 0);
    }
    ++nodes_per_level[level];
  }
};

/// Reads the page a tree entry stands for and offers its elements to the
/// accumulator (RTree::BrowseKnn).
using PageScan = std::function<Status(const geom::SpatialElement& entry,
                                      geom::KnnAccumulator* acc)>;

/// In-memory R-tree. Move-only (owns its node arena).
class RTree {
 public:
  /// Tree node. Leaves (level 0) hold data entries; internal nodes hold
  /// child node ids. `bounds` always covers the full subtree.
  struct Node {
    geom::Aabb bounds;
    int32_t parent = -1;
    int32_t level = 0;  // 0 = leaf
    std::vector<int32_t> children;           // internal nodes
    std::vector<geom::SpatialElement> entries;  // leaf nodes

    bool IsLeaf() const { return level == 0; }
  };

  explicit RTree(RTreeOptions options = RTreeOptions());

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  /// Bulk load with Sort-Tile-Recursive packing. The resulting tree is
  /// fully packed (all nodes at max fill except the last per level).
  static Result<RTree> BulkLoadStr(const geom::ElementVec& elements,
                                   RTreeOptions options = RTreeOptions());

  /// Bulk load by Hilbert-sorting element centers and packing runs.
  static Result<RTree> BulkLoadHilbert(const geom::ElementVec& elements,
                                       RTreeOptions options = RTreeOptions());

  /// STR bulk load over page MBRs: entry i has id i and bounds
  /// page_bounds[i] (FLAT's seed tree, the grid's page tree).
  static Result<RTree> BulkLoadPages(const std::vector<geom::Aabb>& page_bounds,
                                     RTreeOptions options = RTreeOptions());

  /// Build through the path selected by options.build (STR bulk, Hilbert
  /// bulk, or repeated dynamic insertion).
  static Result<RTree> Build(const geom::ElementVec& elements,
                             RTreeOptions options = RTreeOptions());

  /// Insert one element (dynamic path; splits per options.split).
  Status Insert(const geom::SpatialElement& element);

  /// Collect ids of all elements whose bounds intersect `box`.
  void RangeQuery(const geom::Aabb& box, std::vector<geom::ElementId>* out,
                  QueryStats* stats = nullptr) const;

  /// Collect full elements whose bounds intersect `box`.
  void RangeQueryElements(const geom::Aabb& box, geom::ElementVec* out,
                          QueryStats* stats = nullptr) const;

  /// Find *one* element intersecting `box` (FLAT's seed lookup). Returns
  /// false if the range is empty. Uses a best-first descent that prefers
  /// the child whose center is nearest the query center, so the expected
  /// node count is the tree height on dense data.
  bool FindAny(const geom::Aabb& box, geom::SpatialElement* out,
               QueryStats* stats = nullptr) const;

  /// Distance browsing (Hjaltason & Samet, TODS 1999) over a tree whose
  /// entries stand for data pages: one priority queue holds nodes and
  /// entries keyed by their box distance (MINDIST) to `p`, and `scan` reads
  /// the entries' pages in ascending key order. The search stops once k
  /// hits are held and the next key is strictly greater than the k-th
  /// distance: a page whose key ties it can still hold a smaller id
  /// (geom/knn.h). The pages read are then exactly those whose MINDIST is
  /// at most the answer's k-th distance — every page when k is at least the
  /// element count. `hits` is cleared and filled ascending by (distance,
  /// id); k == 0 reads nothing. The first error `scan` returns ends the
  /// search.
  Status BrowseKnn(const geom::Vec3& p, size_t k, const PageScan& scan,
                   std::vector<geom::KnnHit>* hits,
                   QueryStats* stats = nullptr) const;

  /// Number of stored elements.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height in levels (1 for a single leaf root; 0 for an empty tree).
  int Height() const;

  /// Approximate main-memory footprint in bytes.
  size_t MemoryBytes() const;

  /// Verify structural invariants (parent MBR containment, fanout bounds,
  /// uniform leaf depth, parent back-pointers, element count). Used by the
  /// property tests.
  Status CheckInvariants() const;

  /// Per-level structure stats, index 0 = leaf level. Empty for an empty
  /// tree.
  std::vector<LevelStats> LevelProfile() const;

  const RTreeOptions& options() const { return options_; }
  int32_t root() const { return root_; }
  const Node& node(int32_t id) const { return nodes_[id]; }
  size_t NumNodes() const { return nodes_.size(); }

 private:
  int32_t NewNode(int level);
  void RecomputeBounds(int32_t node_id);
  int32_t ChooseSubtree(const geom::Aabb& box, int target_level) const;
  void SplitNode(int32_t node_id);
  void AdjustUpward(int32_t node_id);
  // Overflow treatment: forced reinsertion on the first overflow per level
  // per public Insert (R*), falling back to SplitNode.
  void HandleOverflow(int32_t node_id);
  void ForcedReinsert(int32_t node_id);

  // Packs `boxed` runs into parent nodes until a single root remains.
  static RTree PackLevels(std::vector<Node> leaves, RTreeOptions options,
                          size_t element_count);

  RTreeOptions options_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  size_t size_ = 0;
  // Levels already granted a forced reinsertion during the current Insert.
  std::vector<char> reinserted_levels_;
};

}  // namespace rtree
}  // namespace neurodb

#endif  // NEURODB_RTREE_RTREE_H_
