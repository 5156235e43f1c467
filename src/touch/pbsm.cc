// PBSM — Partition Based Spatial-Merge join (Patel & DeWitt, SIGMOD'96),
// the space-oriented-partitioning baseline. Objects are replicated into
// every grid cell they overlap (the memory cost the paper holds against
// it), cells are joined independently, and duplicate pairs are avoided with
// the reference-point test (report a pair only in the cell that contains
// the lower corner of the boxes' intersection).

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "touch/join_common.h"
#include "touch/spatial_join.h"

namespace neurodb {
namespace touch {

namespace {

/// Hard cap on grid cells per axis.
constexpr size_t kMaxCellsPerDim = 128;

struct Grid {
  geom::Aabb domain;
  size_t dims[3] = {1, 1, 1};
  float inv_cell[3] = {0, 0, 0};

  size_t CellIndex(size_t cx, size_t cy, size_t cz) const {
    return (cz * dims[1] + cy) * dims[0] + cx;
  }

  size_t NumCells() const { return dims[0] * dims[1] * dims[2]; }

  /// Clamped cell coordinate of a scalar along `axis`.
  size_t Coord(float v, int axis) const {
    float rel = (v - domain.min[axis]) * inv_cell[axis];
    if (rel < 0.0f) return 0;
    size_t c = static_cast<size_t>(rel);
    return c >= dims[axis] ? dims[axis] - 1 : c;
  }

  /// Cell range [lo, hi] overlapped by a box.
  void Range(const geom::Aabb& box, size_t lo[3], size_t hi[3]) const {
    for (int axis = 0; axis < 3; ++axis) {
      lo[axis] = Coord(box.min[axis], axis);
      hi[axis] = Coord(box.max[axis], axis);
    }
  }

  /// Cell containing a point.
  size_t CellOf(const geom::Vec3& p) const {
    return CellIndex(Coord(p.x, 0), Coord(p.y, 1), Coord(p.z, 2));
  }
};

Grid MakeGrid(const geom::Aabb& domain, size_t total_objects,
              const JoinOptions& options) {
  Grid grid;
  grid.domain = domain;
  size_t target = options.pbsm_target_per_cell == 0
                      ? 64
                      : options.pbsm_target_per_cell;
  double cells_wanted =
      std::max(1.0, static_cast<double>(total_objects) / target);
  size_t per_dim = static_cast<size_t>(std::ceil(std::cbrt(cells_wanted)));
  per_dim = std::clamp<size_t>(per_dim, 1, kMaxCellsPerDim);
  geom::Vec3 extent = domain.Extent();
  for (int axis = 0; axis < 3; ++axis) {
    grid.dims[axis] = extent[axis] > 0.0f ? per_dim : 1;
    float cell = extent[axis] / static_cast<float>(grid.dims[axis]);
    grid.inv_cell[axis] = cell > 0.0f ? 1.0f / cell : 0.0f;
  }
  return grid;
}

}  // namespace

Result<JoinResult> PbsmJoin(const JoinInput& a, const JoinInput& b,
                            const JoinOptions& options) {
  NEURODB_RETURN_NOT_OK(internal::ValidateJoinArgs(a, b, options));

  JoinResult out;
  Timer total;
  if (a.size() == 0 || b.size() == 0) {
    out.stats.total_ns = total.ElapsedNanos();
    return out;
  }

  Timer build;
  std::vector<geom::Aabb> ea = internal::ExpandAll(a.boxes, options.epsilon);

  geom::Aabb domain;
  for (const auto& box : ea) domain.Extend(box);
  for (const auto& box : b.boxes) domain.Extend(box);
  Grid grid = MakeGrid(domain, a.size() + b.size(), options);

  // Replicate objects into every overlapping cell.
  std::vector<std::vector<uint32_t>> cell_a(grid.NumCells());
  std::vector<std::vector<uint32_t>> cell_b(grid.NumCells());
  uint64_t replicas = 0;
  auto scatter = [&](const std::vector<geom::Aabb>& boxes,
                     std::vector<std::vector<uint32_t>>* cells) {
    for (uint32_t idx = 0; idx < boxes.size(); ++idx) {
      size_t lo[3];
      size_t hi[3];
      grid.Range(boxes[idx], lo, hi);
      for (size_t z = lo[2]; z <= hi[2]; ++z) {
        for (size_t y = lo[1]; y <= hi[1]; ++y) {
          for (size_t x = lo[0]; x <= hi[0]; ++x) {
            (*cells)[grid.CellIndex(x, y, z)].push_back(idx);
            ++replicas;
          }
        }
      }
    }
  };
  scatter(ea, &cell_a);
  scatter(b.boxes, &cell_b);
  out.stats.build_ns = build.ElapsedNanos();
  out.stats.peak_bytes = ea.capacity() * sizeof(geom::Aabb) +
                         replicas * sizeof(uint32_t) +
                         grid.NumCells() * 2 * sizeof(std::vector<uint32_t>);

  Timer probe;
  for (size_t cell = 0; cell < grid.NumCells(); ++cell) {
    const auto& list_a = cell_a[cell];
    const auto& list_b = cell_b[cell];
    if (list_a.empty() || list_b.empty()) continue;
    for (uint32_t i : list_a) {
      for (uint32_t j : list_b) {
        ++out.stats.mbr_tests;
        if (!ea[i].Intersects(b.boxes[j])) continue;
        // Reference-point duplicate avoidance: only the cell containing the
        // lower corner of the intersection reports the pair.
        geom::Vec3 ref = geom::Max(ea[i].min, b.boxes[j].min);
        if (grid.CellOf(ref) != cell) continue;
        bool match = true;
        if (a.HasGeometry() && b.HasGeometry()) {
          ++out.stats.refine_tests;
          match = geom::CapsuleDistance(a.segments[i], b.segments[j]) <=
                  static_cast<double>(options.epsilon);
        }
        if (match) out.pairs.push_back(JoinPair{a.ids[i], b.ids[j]});
      }
    }
  }
  out.stats.probe_ns = probe.ElapsedNanos();
  out.stats.total_ns = total.ElapsedNanos();
  out.stats.results = out.pairs.size();
  return out;
}

}  // namespace touch
}  // namespace neurodb
