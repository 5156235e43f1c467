#include "scout/structure.h"

#include <algorithm>
#include <cstring>

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

/// The bits of a finite float as an unsigned integer with the same order
/// (-0.0 sorts just below +0.0, which the sweep treats as equal).
uint32_t OrderedBits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits ^ ((bits >> 31) != 0 ? 0xFFFFFFFFu : 0x80000000u);
}

/// Sorts `keys` by their high 32 bits with LSD radix passes over 8-bit
/// digits; keys whose high halves are equal keep their order. A digit that
/// every key shares costs no pass. `scratch` is working space.
void SortByHighHalf(std::vector<uint64_t>* keys,
                    std::vector<uint64_t>* scratch) {
  const size_t n = keys->size();
  if (n < 2) return;
  uint32_t count[4][256] = {};
  for (uint64_t key : *keys) {
    for (int d = 0; d < 4; ++d) ++count[d][(key >> (32 + 8 * d)) & 0xFF];
  }
  scratch->resize(n);
  uint64_t* from = keys->data();
  uint64_t* to = scratch->data();
  for (int d = 0; d < 4; ++d) {
    const int shift = 32 + 8 * d;
    if (count[d][(from[0] >> shift) & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : count[d]) {
      const uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (size_t i = 0; i < n; ++i) {
      to[count[d][(from[i] >> shift) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != keys->data()) std::copy(from, from + n, keys->data());
}

}  // namespace

Result<std::vector<Structure>> ExtractStructures(
    const std::vector<ElementId>& ids, const neuro::SegmentResolver& resolver,
    const Aabb& box, const StructureOptions& options) {
  if (!(options.connect_tol > 0.0f)) {
    return Status::InvalidArgument("StructureOptions: connect_tol must be > 0");
  }

  // Resolve every id to its row of the resolver's segment column.
  const size_t n = ids.size();
  std::vector<const Segment*> segs(n);
  const Segment* first_row = nullptr;
  for (size_t i = 0; i < n; ++i) {
    segs[i] = resolver.Lookup(ids[i]);
    if (segs[i] == nullptr) {
      return Status::NotFound("SegmentResolver: unknown element id");
    }
    if (first_row == nullptr || segs[i] < first_row) first_row = segs[i];
  }

  // Visit the results in row order, the order their segments were added to
  // the resolver: along each section for a flattened circuit, so that a
  // section's consecutive segments are neighbours whichever order the
  // results came in (cached steps deliver id order, crawls page order).
  // Each key holds a row's offset from the lowest row (all rows are in the
  // resolver's one column) above the result's index.
  std::vector<uint64_t> order(n), scratch;
  bool in_row_order = true;
  for (size_t i = 0; i < n; ++i) {
    order[i] = (static_cast<uint64_t>(segs[i] - first_row) << 32) | i;
    in_row_order = in_row_order && (i == 0 || order[i - 1] < order[i]);
  }
  if (!in_row_order) SortByHighHalf(&order, &scratch);

  // Two segments are connected when an endpoint of one lies within
  // connect_tol of an endpoint of the other. Neighbours in row order that
  // share an exact joint (one's b is the next one's a) are joined here, and
  // the joint enters the sweep once: every endpoint near it reaches both
  // segments through the one kept. An endpoint with a NaN or infinite
  // coordinate is never within the tolerance of another, so it joins
  // nothing and stays out of the sweep.
  UnionFind uf(n);
  std::vector<uint64_t> keys;
  keys.reserve(2 * n);
  auto add = [&keys](const Vec3& p, uint32_t endpoint) {
    if (geom::IsFinitePoint(p)) {
      keys.push_back((static_cast<uint64_t>(OrderedBits(p.x)) << 32) |
                     endpoint);
    }
  };
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = static_cast<uint32_t>(order[k]);
    const Segment& s = *segs[i];
    const uint32_t prev = k > 0 ? static_cast<uint32_t>(order[k - 1]) : i;
    if (k > 0 && segs[prev]->b == s.a && geom::IsFinitePoint(s.a)) {
      uf.Union(prev, i);
    } else {
      add(s.a, 2 * i);
    }
    add(s.b, 2 * i + 1);
  }

  // Sweep the endpoints in x order (the keys' high halves order like x):
  // each endpoint is tested against the ones after it. The x gap alone
  // bounds the squared distance from below, so each scan stops at the first
  // endpoint whose gap already fails the test; the y gap bounds it too, and
  // rules out most of the slab before the full test.
  SortByHighHalf(&keys, &scratch);
  std::vector<Endpoint> ends(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint32_t endpoint = static_cast<uint32_t>(keys[k]);
    const Segment& s = *segs[endpoint / 2];
    ends[k] = Endpoint{endpoint % 2 == 0 ? s.a : s.b, endpoint / 2};
  }
  const double tol2 =
      static_cast<double>(options.connect_tol) * options.connect_tol;
  for (size_t a = 0; a < ends.size(); ++a) {
    const Endpoint& from = ends[a];
    for (size_t b = a + 1; b < ends.size(); ++b) {
      const Endpoint& to = ends[b];
      const float gap = to.p.x - from.p.x;
      if (static_cast<double>(gap) * gap > tol2) break;
      const float dy = from.p.y - to.p.y;
      if (static_cast<double>(dy) * dy > tol2) continue;
      if (to.segment != from.segment &&
          geom::SquaredDistance(from.p, to.p) <= tol2) {
        uf.Union(from.segment, to.segment);
      }
    }
  }

  // Group by component root, in order of each component's first result.
  // A segment with one endpoint outside the box is an exit: the skeleton
  // leaves the query there. Count each structure's members and exits, then
  // fill them.
  constexpr uint32_t kNoStructure = UINT32_MAX;
  std::vector<uint32_t> structure_of(n, kNoStructure);
  std::vector<char> crosses(n);
  struct Size {
    uint32_t members = 0;
    uint32_t exits = 0;
  };
  std::vector<Size> sizes;
  for (uint32_t i = 0; i < n; ++i) {
    // A root's entry holds its structure; every other result's entry is
    // then set to its own structure, for the fill below.
    const uint32_t root = uf.Find(i);
    uint32_t& slot = structure_of[root];
    if (slot == kNoStructure) {
      slot = static_cast<uint32_t>(sizes.size());
      sizes.emplace_back();
    }
    if (root != i) structure_of[i] = slot;
    crosses[i] = box.Contains(segs[i]->a) != box.Contains(segs[i]->b);
    ++sizes[slot].members;
    sizes[slot].exits += crosses[i];
  }
  std::vector<Structure> structures(sizes.size());
  for (size_t s = 0; s < sizes.size(); ++s) {
    structures[s].elements.reserve(sizes[s].members);
    structures[s].exits.reserve(sizes[s].exits);
  }
  for (uint32_t i = 0; i < n; ++i) {
    Structure& s = structures[structure_of[i]];
    s.elements.push_back(ids[i]);
    if (!crosses[i]) continue;
    const Vec3& a = segs[i]->a;
    const Vec3& b = segs[i]->b;
    const bool a_in = box.Contains(a);
    const Vec3& inside = a_in ? a : b;
    const Vec3& outside = a_in ? b : a;
    // Blend the local segment direction with the chord from the query
    // center to the exit: real branches are jagged (paper Section 3), so
    // the chord smooths the extrapolation the way the skeleton graph does,
    // while the local direction keeps the turn information.
    Vec3 local = (outside - inside).Normalized();
    Vec3 chord = (outside - box.Center()).Normalized();
    Vec3 dir = (local + chord).Normalized();
    if (dir.SquaredNorm() > 0.0) {
      s.exits.push_back(StructureExit{outside, dir});
    }
  }
  for (auto& s : structures) {
    if (!std::is_sorted(s.elements.begin(), s.elements.end())) {
      std::sort(s.elements.begin(), s.elements.end());
    }
  }
  return structures;
}

}  // namespace scout
}  // namespace neurodb
