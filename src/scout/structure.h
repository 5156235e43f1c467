// NeuroDB — structure (topological skeleton) extraction from query results.
//
// SCOUT's key idea (paper Section 3.1): "While the result of query q in the
// sequence is loaded, SCOUT already starts to reconstruct the dominating
// structures/the topological skeleton in q and approximates them with a
// graph. Once the graph is constructed, it is traversed to find the
// locations where its edges exit q."
//
// Here a *structure* is a connected component of branch segments (segments
// are adjacent when an endpoint of one lies within connect_tol of an
// endpoint of the other); its *exits* are the points and outward directions
// where the component's skeleton crosses the query boundary.
//
// Extraction reads each result's segment through the resolver's id → row
// table and visits the results in id order. Neighbours in that order that
// share an exact joint (one segment's end is the next one's start, as along
// a section) are joined directly, and the joint enters the sweep once. The
// remaining endpoints are sorted as 64-bit keys, x's order-preserving bits
// above the endpoint's index, and swept once: each endpoint is tested only
// against the endpoints after it whose x gap is at most connect_tol, and
// each match joins two segments in a union-find. Components are counted,
// then filled. The cost is the O(n log n) key sort plus one distance test
// per endpoint pair inside a connect_tol-wide x slab: near linear for
// branch-like results, quadratic only in the number of sections that meet
// at one hub.

#ifndef NEURODB_SCOUT_STRUCTURE_H_
#define NEURODB_SCOUT_STRUCTURE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/segment.h"
#include "neuro/circuit.h"

namespace neurodb {
namespace scout {

/// A boundary crossing of a structure's skeleton.
struct StructureExit {
  /// Where the skeleton leaves the query box.
  geom::Vec3 point;
  /// Outward direction at the exit (unit length).
  geom::Vec3 direction;
};

/// One connected structure inside a query result.
struct Structure {
  /// Member element ids, sorted (used for cross-query identity matching).
  std::vector<geom::ElementId> elements;
  std::vector<StructureExit> exits;

  bool HasExit() const { return !exits.empty(); }
};

/// Extraction tuning.
struct StructureOptions {
  /// Segments with endpoints at most this far apart are connected (µm).
  float connect_tol = 1.0f;
};

/// Reconstruct the structures present in a query result. `ids` is the
/// result of a range query over `box`; geometry is resolved via `resolver`.
/// Structures come out in order of their lowest result index, each one's
/// exits in result order; an endpoint with a NaN or infinite coordinate
/// connects to nothing. Ids missing from the resolver yield NotFound.
Result<std::vector<Structure>> ExtractStructures(
    const std::vector<geom::ElementId>& ids,
    const neuro::SegmentResolver& resolver, const geom::Aabb& box,
    const StructureOptions& options = StructureOptions());

}  // namespace scout
}  // namespace neurodb

#endif  // NEURODB_SCOUT_STRUCTURE_H_
