#include "cache/delta_planner.h"

#include <algorithm>

namespace neurodb {
namespace cache {

using geom::Aabb;

std::vector<Aabb> DeltaPlanner::SubtractBox(const Aabb& outer,
                                            const Aabb& clip) {
  std::vector<Aabb> out;
  if (!outer.IsValid()) return out;
  Aabb c = Aabb::Intersection(outer, clip);
  if (c.IsEmpty()) {
    out.push_back(outer);
    return out;
  }

  // Slab decomposition: peel z first, then y within the clip's z range,
  // then x within the clip's z and y ranges. A point of `outer` outside
  // `c` falls into exactly one slab's interior; slabs only share faces.
  auto emit = [&out](const Aabb& box) { out.push_back(box); };
  if (outer.min.z < c.min.z) {
    emit(Aabb({outer.min.x, outer.min.y, outer.min.z},
              {outer.max.x, outer.max.y, c.min.z}));
  }
  if (c.max.z < outer.max.z) {
    emit(Aabb({outer.min.x, outer.min.y, c.max.z},
              {outer.max.x, outer.max.y, outer.max.z}));
  }
  if (outer.min.y < c.min.y) {
    emit(Aabb({outer.min.x, outer.min.y, c.min.z},
              {outer.max.x, c.min.y, c.max.z}));
  }
  if (c.max.y < outer.max.y) {
    emit(Aabb({outer.min.x, c.max.y, c.min.z},
              {outer.max.x, outer.max.y, c.max.z}));
  }
  if (outer.min.x < c.min.x) {
    emit(Aabb({outer.min.x, c.min.y, c.min.z},
              {c.min.x, c.max.y, c.max.z}));
  }
  if (c.max.x < outer.max.x) {
    emit(Aabb({c.max.x, c.min.y, c.min.z},
              {outer.max.x, c.max.y, c.max.z}));
  }
  return out;
}

DeltaPlan DeltaPlanner::Plan(ResultCache& cache, const Aabb& box) {
  DeltaPlan plan;
  // The coverage threshold lives in the lookup so the cache's hit/miss
  // statistics report only coverage that was actually worth serving.
  std::optional<size_t> best =
      cache.BestOverlap(box, kMinCoveredFraction);
  if (!best.has_value()) {
    plan.residuals.push_back(box);
    return plan;
  }

  plan.source = best;
  const Aabb& coverage = cache.entry(*best).box;
  plan.covered = Aabb::Intersection(box, coverage);
  plan.residuals = SubtractBox(box, coverage);

  // BestOverlap demands positive overlap volume, so a hit implies a
  // positive-volume query box (guarded anyway: never divide by zero).
  double box_volume = box.Volume();
  plan.covered_fraction =
      box_volume > 0.0 ? std::min(1.0, plan.covered.Volume() / box_volume)
                       : 0.0;
  plan.residual_fraction = 1.0 - plan.covered_fraction;
  return plan;
}

Result<geom::ElementVec> DeltaPlanner::Answer(
    ResultCache& cache, const Aabb& box,
    const std::function<Status(const Aabb&, geom::CollectingVisitor*)>&
        run_residual,
    DeltaPlan* plan_out) {
  DeltaPlan plan = Plan(cache, box);
  // The one entry the plan reads is scanned now, if it never was.
  if (plan.source.has_value()) {
    NEURODB_RETURN_NOT_OK(cache.Scan(*plan.source));
  }

  geom::CollectingVisitor residual_out;
  for (const Aabb& residual : plan.residuals) {
    NEURODB_RETURN_NOT_OK(run_residual(residual, &residual_out));
  }

  geom::ElementVec merged;
  if (plan.source.has_value()) {
    merged = MergeById(cache.entry(*plan.source), box,
                       residual_out.TakeElements());
  } else {
    merged = residual_out.TakeElements();
    SortById(&merged);
  }
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return merged;
}

geom::ElementVec DeltaPlanner::MergeById(const CachedResult& entry,
                                         const Aabb& box,
                                         geom::ElementVec residual_results) {
  // Sort only the (small) residual part; the cached entry is already
  // ascending by id and filtering preserves that, so one inplace_merge
  // keeps the hot high-coverage path linear in the cached set instead of
  // O(n log n).
  geom::ElementVec merged = std::move(residual_results);
  SortById(&merged);
  size_t residual_count = merged.size();
  for (const geom::SpatialElement& e : entry.results) {
    if (e.bounds.Intersects(box)) merged.push_back(e);
  }
  std::inplace_merge(
      merged.begin(),
      merged.begin() + static_cast<ptrdiff_t>(residual_count), merged.end(),
      [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
        return a.id < b.id;
      });
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const geom::SpatialElement& a,
                              const geom::SpatialElement& b) {
                             return a.id == b.id;
                           }),
               merged.end());
  return merged;
}

}  // namespace cache
}  // namespace neurodb
