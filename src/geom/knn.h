// NeuroDB — k-nearest-neighbour primitives shared by every backend.
//
// All kNN answers in the library use the same metric and the same total
// order: the Euclidean distance from the query point to the element's
// bounding box (0 inside the box), with ties broken by ascending element
// id. The tie-break makes the k-element answer set *deterministic* — the
// backends (FLAT and grid page browsing, the paged R-tree's best-first
// descent, the sharded fan-out) can be compared hit-for-hit in
// BackendChoice::kAll parity runs and against BruteForceKnn.

#ifndef NEURODB_GEOM_KNN_H_
#define NEURODB_GEOM_KNN_H_

#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/vec3.h"

namespace neurodb {
namespace geom {

/// One kNN answer: element id plus its box distance to the query point.
struct KnnHit {
  ElementId id = 0;
  double distance = 0.0;

  bool operator==(const KnnHit& o) const {
    return id == o.id && distance == o.distance;
  }
  /// Total order used everywhere: (distance, id) ascending.
  bool operator<(const KnnHit& o) const {
    return distance != o.distance ? distance < o.distance : id < o.id;
  }
};

/// Bounded accumulator of the k best hits under the (distance, id) order.
/// Offer() every candidate; TakeSorted() returns the k best ascending.
class KnnAccumulator {
 public:
  explicit KnnAccumulator(size_t k) : k_(k) {}

  /// Consider one candidate.
  void Offer(ElementId id, double distance) {
    if (k_ == 0) return;
    KnnHit hit{id, distance};
    if (heap_.size() < k_) {
      heap_.push(hit);
    } else if (hit < heap_.top()) {
      heap_.pop();
      heap_.push(hit);
    }
  }

  bool Full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }

  /// Distance of the current kth hit; +inf while fewer than k hits are
  /// held. A node/page whose minimum distance exceeds this bound cannot
  /// improve the answer (at equal distance it still can, via a smaller id —
  /// prune strictly greater only).
  double WorstDistance() const {
    return Full() ? heap_.top().distance
                  : std::numeric_limits<double>::infinity();
  }

  /// The k best hits, ascending by (distance, id). Leaves the accumulator
  /// empty.
  std::vector<KnnHit> TakeSorted() {
    std::vector<KnnHit> out;
    out.resize(heap_.size());
    for (size_t i = heap_.size(); i-- > 0;) {
      out[i] = heap_.top();
      heap_.pop();
    }
    return out;
  }

 private:
  size_t k_;
  // Max-heap under (distance, id): top = current worst of the k best.
  std::priority_queue<KnnHit> heap_;
};

/// Distance used by every backend: point-to-box Euclidean distance.
inline double KnnDistance(const Vec3& p, const Aabb& bounds) {
  return std::sqrt(bounds.SquaredDistanceTo(p));
}

/// True if every coordinate of `p` is finite (kNN validation boundary).
inline bool IsFinitePoint(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

/// True if both corners of `box` are finite (element and join-input
/// validation: the packers sort by box center, and a NaN key breaks
/// std::sort's ordering contract).
inline bool IsFiniteBox(const Aabb& box) {
  return IsFinitePoint(box.min) && IsFinitePoint(box.max);
}

/// Brute-force reference: the k best hits over `elements` under the shared
/// order. The ground truth the property tests and the differential harness
/// compare every backend against.
inline std::vector<KnnHit> BruteForceKnn(const ElementVec& elements,
                                         const Vec3& p, size_t k) {
  KnnAccumulator acc(k);
  for (const auto& e : elements) acc.Offer(e.id, KnnDistance(p, e.bounds));
  return acc.TakeSorted();
}

}  // namespace geom
}  // namespace neurodb

#endif  // NEURODB_GEOM_KNN_H_
