// NeuroDB — DeltaPlanner: decompose a range query against a ResultCache.
//
// Given a new query box and the cached coverage boxes, the planner picks
// the cached entry with the largest overlap and splits the query into
//
//   * one covered fragment (query ∩ entry) answered from the cache —
//     every cached element whose bounds intersect the query is part of the
//     answer, and no intersecting element can be missing because the
//     fragment lies inside the entry's coverage box;
//   * at most six residual boxes covering query \ entry (the classic
//     axis-aligned box subtraction: two z slabs, two y slabs, two x slabs)
//     answered by the backend.
//
// Residuals are interior-disjoint but share faces with each other and with
// the fragment (closed boxes), so an element touching a shared face can be
// reported by several parts; MergeById deduplicates under the global
// ascending-id order, making the merged answer byte-identical (as an
// id-ordered set) to a full re-query.

#ifndef NEURODB_CACHE_DELTA_PLANNER_H_
#define NEURODB_CACHE_DELTA_PLANNER_H_

#include <functional>
#include <optional>
#include <vector>

#include "cache/result_cache.h"
#include "common/result.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/visitor.h"

namespace neurodb {
namespace cache {

/// How one query box decomposes against the cache.
struct DeltaPlan {
  /// Cache entry serving the covered fragment; nullopt on a full miss
  /// (then `residuals` is exactly the query box). Overlaps covering less
  /// than kMinCoveredFraction of the query are treated as misses: a
  /// sliver overlap would pay up to six residual queries plus the merge
  /// for essentially no coverage — worse than one full query.
  std::optional<size_t> source;
  /// query ∩ source coverage box (empty on a miss).
  geom::Aabb covered;
  /// Uncovered parts, at most six interior-disjoint boxes.
  std::vector<geom::Aabb> residuals;
  /// Volume of `covered` / volume of the query. 0 on a miss — and a
  /// zero-volume (degenerate) query is always a miss, since the lookup
  /// demands a positive overlap volume.
  double covered_fraction = 0.0;
  /// 1 - covered_fraction: the volume the backend must still answer.
  double residual_fraction = 1.0;
};

class DeltaPlanner {
 public:
  /// Coverage below this fraction of the query volume is not worth the
  /// residual decomposition; the plan degrades to a full miss.
  static constexpr double kMinCoveredFraction = 0.05;

  /// Plan `box` against `cache` (counts a cache lookup).
  static DeltaPlan Plan(ResultCache& cache, const geom::Aabb& box);

  /// The full delta protocol: plan `box`, scan the source entry if it is
  /// unscanned (ResultCache::Scan; a failed scan is returned), answer
  /// every residual through `run_residual` (a backend or index range query
  /// into the visitor), and merge with the covered fragment under the
  /// ascending-id order. On a miss the one "residual" is the whole box, so
  /// the caller needs no separate path. The caller streams the returned
  /// answer and decides whether to Insert it back into `cache`. `plan_out`
  /// (may be null) receives the plan for statistics.
  static Result<geom::ElementVec> Answer(
      ResultCache& cache, const geom::Aabb& box,
      const std::function<Status(const geom::Aabb&,
                                 geom::CollectingVisitor*)>& run_residual,
      DeltaPlan* plan_out);

  /// `outer \ (outer ∩ clip)` as at most six interior-disjoint closed
  /// boxes. Empty when clip covers outer; {outer} when they are disjoint.
  static std::vector<geom::Aabb> SubtractBox(const geom::Aabb& outer,
                                             const geom::Aabb& clip);

  /// The delta answer: `entry`'s cached elements filtered by exact
  /// bounds-vs-`box` intersection, merged with the residual query results,
  /// deduplicated, ascending by id. `entry` must be scanned;
  /// `residual_results` need not be sorted.
  static geom::ElementVec MergeById(const CachedResult& entry,
                                    const geom::Aabb& box,
                                    geom::ElementVec residual_results);
};

}  // namespace cache
}  // namespace neurodb

#endif  // NEURODB_CACHE_DELTA_PLANNER_H_
