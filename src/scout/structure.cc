#include "scout/structure.h"

#include <algorithm>

#include "geom/knn.h"

namespace neurodb {
namespace scout {

using geom::Aabb;
using geom::ElementId;
using geom::Segment;
using geom::Vec3;

namespace {

/// Disjoint-set over segment indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<uint32_t> parent_;
};

/// One segment endpoint in the sweep order.
struct Endpoint {
  Vec3 p;
  uint32_t segment;
};

}  // namespace

Result<std::vector<Structure>> ExtractStructures(
    const std::vector<ElementId>& ids, const neuro::SegmentResolver& resolver,
    const Aabb& box, const StructureOptions& options) {
  if (!(options.connect_tol > 0.0f)) {
    return Status::InvalidArgument("StructureOptions: connect_tol must be > 0");
  }

  const size_t n = ids.size();
  std::vector<Segment> segs(n);
  std::vector<Endpoint> ends;
  ends.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    NEURODB_ASSIGN_OR_RETURN(segs[i], resolver.Find(ids[i]));
    // An endpoint with a NaN or infinite coordinate is never within the
    // tolerance of another; leaving it out also keeps NaN out of the sort.
    for (const Vec3& p : {segs[i].a, segs[i].b}) {
      if (geom::IsFinitePoint(p)) {
        ends.push_back(Endpoint{p, static_cast<uint32_t>(i)});
      }
    }
  }

  // Sweep the endpoints in x order: two segments are connected when an
  // endpoint of one lies within connect_tol of an endpoint of the other.
  // The x gap alone bounds the squared distance from below, so each scan
  // stops at the first endpoint whose gap already fails the test.
  std::sort(ends.begin(), ends.end(),
            [](const Endpoint& l, const Endpoint& r) { return l.p.x < r.p.x; });
  const double tol2 =
      static_cast<double>(options.connect_tol) * options.connect_tol;
  UnionFind uf(n);
  for (size_t a = 0; a < ends.size(); ++a) {
    const Endpoint& from = ends[a];
    for (size_t b = a + 1; b < ends.size(); ++b) {
      const Endpoint& to = ends[b];
      const float gap = to.p.x - from.p.x;
      if (static_cast<double>(gap) * gap > tol2) break;
      if (to.segment != from.segment &&
          geom::SquaredDistance(from.p, to.p) <= tol2) {
        uf.Union(from.segment, to.segment);
      }
    }
  }

  // Group by component root, in order of each component's first result.
  constexpr uint32_t kNoStructure = UINT32_MAX;
  std::vector<uint32_t> structure_of_root(n, kNoStructure);
  std::vector<Structure> structures;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t& slot = structure_of_root[uf.Find(i)];
    if (slot == kNoStructure) {
      slot = static_cast<uint32_t>(structures.size());
      structures.emplace_back();
    }
    Structure& s = structures[slot];
    s.elements.push_back(ids[i]);

    // Exit detection: an endpoint outside the box means the skeleton leaves
    // the query there.
    const Vec3& a = segs[i].a;
    const Vec3& b = segs[i].b;
    bool a_in = box.Contains(a);
    bool b_in = box.Contains(b);
    if (a_in != b_in) {
      const Vec3& inside = a_in ? a : b;
      const Vec3& outside = a_in ? b : a;
      // Blend the local segment direction with the chord from the query
      // center to the exit: real branches are jagged (paper Section 3), so
      // the chord smooths the extrapolation the way the skeleton graph
      // does, while the local direction keeps the turn information.
      Vec3 local = (outside - inside).Normalized();
      Vec3 chord = (outside - box.Center()).Normalized();
      Vec3 dir = (local + chord).Normalized();
      if (dir.SquaredNorm() > 0.0) {
        s.exits.push_back(StructureExit{outside, dir});
      }
    }
  }
  for (auto& s : structures) {
    std::sort(s.elements.begin(), s.elements.end());
  }
  return structures;
}

}  // namespace scout
}  // namespace neurodb
