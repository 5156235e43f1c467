// NeuroDB — internal helpers shared by the join implementations.

#ifndef NEURODB_TOUCH_JOIN_COMMON_H_
#define NEURODB_TOUCH_JOIN_COMMON_H_

#include <vector>

#include "geom/aabb.h"
#include "geom/segment.h"
#include "touch/spatial_join.h"

namespace neurodb {
namespace touch {
namespace internal {

/// A's boxes pre-expanded by epsilon (the filter predicate then becomes a
/// plain intersection test against B's boxes).
inline std::vector<geom::Aabb> ExpandAll(const std::vector<geom::Aabb>& boxes,
                                         float eps) {
  std::vector<geom::Aabb> out;
  out.reserve(boxes.size());
  for (const auto& b : boxes) out.push_back(b.Expanded(eps));
  return out;
}

/// Full predicate on positions (i in A, j in B) with pre-expanded A boxes.
/// Counts one mbr test and, when applicable, one refinement.
inline bool PairMatches(const JoinInput& a, const JoinInput& b,
                        const std::vector<geom::Aabb>& expanded_a, uint32_t i,
                        uint32_t j, const JoinOptions& options,
                        JoinStats* stats) {
  ++stats->mbr_tests;
  if (!expanded_a[i].Intersects(b.boxes[j])) return false;
  if (a.HasGeometry() && b.HasGeometry()) {
    ++stats->refine_tests;
    return geom::CapsuleDistance(a.segments[i], b.segments[j]) <=
           static_cast<double>(options.epsilon);
  }
  return true;
}

/// Shared argument validation.
inline Status ValidateJoinArgs(const JoinInput& a, const JoinInput& b,
                               const JoinOptions& options) {
  NEURODB_RETURN_NOT_OK(a.Validate());
  NEURODB_RETURN_NOT_OK(b.Validate());
  return options.Validate();
}

}  // namespace internal
}  // namespace touch
}  // namespace neurodb

#endif  // NEURODB_TOUCH_JOIN_COMMON_H_
