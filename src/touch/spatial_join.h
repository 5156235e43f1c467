// NeuroDB — spatial distance join framework.
//
// Reproduces the paper's data-discovery component (Section 4): "a distance
// join on an unindexed and unsorted dataset to find pairs of neuron
// branches within distance e of each other" — synapse placement. TOUCH
// (touch_join.cc) is the contribution; nested loop, plane sweep, PBSM and
// S3 synchronized R-tree traversal are the baselines named by the paper.
//
// All algorithms implement the same predicate and must return the same pair
// set (the property tests verify this):
//   filter: a.box expanded by epsilon intersects b.box,
//   refine: capsule distance(a, b) <= epsilon (when both inputs carry
//           capsule geometry).

#ifndef NEURODB_TOUCH_SPATIAL_JOIN_H_
#define NEURODB_TOUCH_SPATIAL_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/segment.h"

namespace neurodb {
namespace touch {

/// One join input: bounding boxes + external ids, optionally with capsule
/// geometry for exact refinement (parallel arrays).
struct JoinInput {
  std::vector<geom::Aabb> boxes;
  std::vector<geom::ElementId> ids;
  std::vector<geom::Segment> segments;  // empty, or parallel to boxes

  size_t size() const { return boxes.size(); }
  bool HasGeometry() const {
    return !segments.empty() && segments.size() == boxes.size();
  }

  /// Boxes/ids only (filter-level joins).
  static JoinInput FromElements(const geom::ElementVec& elements);

  /// Full capsule inputs; boxes are derived from the capsules.
  static JoinInput FromSegments(std::vector<geom::Segment> segments,
                                std::vector<geom::ElementId> ids);

  Status Validate() const;
};

/// Knobs shared by all join algorithms plus per-algorithm tuning.
struct JoinOptions {
  /// Synapse distance threshold in micrometres.
  float epsilon = 2.0f;

  // --- TOUCH ---
  /// Internal fanout of the hierarchical partitioning tree over A (>= 4).
  size_t touch_fanout = 8;
  /// Data leaf size of the partitioning tree (>= 2).
  size_t touch_leaf = 64;

  // --- PBSM ---
  /// Target average objects per grid cell (drives the grid resolution, at
  /// most 128 cells per axis); 0 picks the default.
  size_t pbsm_target_per_cell = 64;

  Status Validate() const;
};

/// One joined pair, reported by external ids.
struct JoinPair {
  geom::ElementId a = 0;
  geom::ElementId b = 0;

  bool operator==(const JoinPair& o) const { return a == o.a && b == o.b; }
  bool operator<(const JoinPair& o) const {
    return a != o.a ? a < o.a : b < o.b;
  }
};

/// Phase timings and work counters (the demo's live join panel, Figure 7:
/// "time spent on the join, memory footprint as well as the number of
/// pairwise comparisons").
struct JoinStats {
  uint64_t build_ns = 0;   // structure construction (tree / grid / sort)
  uint64_t assign_ns = 0;  // TOUCH assignment phase (0 for others)
  uint64_t probe_ns = 0;   // pair-finding phase
  uint64_t total_ns = 0;

  uint64_t mbr_tests = 0;     // pairwise box comparisons
  uint64_t node_tests = 0;    // node-level box comparisons (trees/grid)
  uint64_t refine_tests = 0;  // exact capsule distance evaluations
  uint64_t results = 0;

  /// Estimated peak bytes of auxiliary structures. TOUCH reports the
  /// high-water mark over its phases: A's element copy beside the tree in
  /// the build, each lane's scratch beside the per-item pairs in the probe
  /// (so it grows with the lanes), and those pairs beside the merged result.
  uint64_t peak_bytes = 0;

  /// TOUCH only: B objects discarded in empty space (the filtering step).
  uint64_t filtered = 0;
};

/// Output of a join.
struct JoinResult {
  std::vector<JoinPair> pairs;
  JoinStats stats;
};

/// Available algorithms.
enum class JoinMethod {
  kNestedLoop,
  kPlaneSweep,
  kScalableSweep,
  kPbsm,
  kS3,
  kTouch,
};

/// Human-readable algorithm name ("TOUCH", "PBSM", ...).
const char* JoinMethodName(JoinMethod method);

/// All methods, in the order the benches report them.
std::vector<JoinMethod> AllJoinMethods();

// Individual algorithms. All validate inputs and honour JoinOptions.
Result<JoinResult> NestedLoopJoin(const JoinInput& a, const JoinInput& b,
                                  const JoinOptions& options);
Result<JoinResult> PlaneSweepJoin(const JoinInput& a, const JoinInput& b,
                                  const JoinOptions& options);
Result<JoinResult> ScalableSweepJoin(const JoinInput& a, const JoinInput& b,
                                     const JoinOptions& options);
Result<JoinResult> PbsmJoin(const JoinInput& a, const JoinInput& b,
                            const JoinOptions& options);
Result<JoinResult> S3Join(const JoinInput& a, const JoinInput& b,
                          const JoinOptions& options);
Result<JoinResult> TouchJoin(const JoinInput& a, const JoinInput& b,
                             const JoinOptions& options);

/// Dispatch by method.
Result<JoinResult> RunJoin(JoinMethod method, const JoinInput& a,
                           const JoinInput& b, const JoinOptions& options);

}  // namespace touch
}  // namespace neurodb

#endif  // NEURODB_TOUCH_SPATIAL_JOIN_H_
