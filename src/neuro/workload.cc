#include "neuro/workload.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace neurodb {
namespace neuro {

using geom::Aabb;
using geom::Vec3;

namespace {

Vec3 UniformPoint(Pcg32* rng, const Aabb& domain) {
  return Vec3(static_cast<float>(rng->Uniform(domain.min.x, domain.max.x)),
              static_cast<float>(rng->Uniform(domain.min.y, domain.max.y)),
              static_cast<float>(rng->Uniform(domain.min.z, domain.max.z)));
}

Vec3 UnitVector(Pcg32* rng) {
  for (;;) {
    double u = rng->Uniform(-1.0, 1.0);
    double v = rng->Uniform(-1.0, 1.0);
    double s = u * u + v * v;
    if (s >= 1.0 || s == 0.0) continue;
    double root = std::sqrt(1.0 - s);
    return Vec3(static_cast<float>(2.0 * u * root),
                static_cast<float>(2.0 * v * root),
                static_cast<float>(1.0 - 2.0 * s));
  }
}

}  // namespace

std::vector<Aabb> UniformQueries(const Aabb& domain, float side, size_t n,
                                 uint64_t seed) {
  Pcg32 rng(seed, 1);
  std::vector<Aabb> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Aabb::Cube(UniformPoint(&rng, domain), side));
  }
  return out;
}

std::vector<Aabb> DataCenteredQueries(const geom::ElementVec& elements,
                                      float side, size_t n, uint64_t seed) {
  Pcg32 rng(seed, 2);
  std::vector<Aabb> out;
  if (elements.empty()) return out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& e = elements[rng.NextBounded(
        static_cast<uint32_t>(elements.size()))];
    out.push_back(Aabb::Cube(e.bounds.Center(), side));
  }
  return out;
}

std::vector<Aabb> LayerQueries(const Aabb& domain, float y_lo, float y_hi,
                               float side, size_t n, uint64_t seed) {
  Pcg32 rng(seed, 3);
  std::vector<Aabb> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(domain.min.x, domain.max.x)),
           static_cast<float>(rng.Uniform(y_lo, y_hi)),
           static_cast<float>(rng.Uniform(domain.min.z, domain.max.z)));
    out.push_back(Aabb::Cube(c, side));
  }
  return out;
}

double NavigationPath::Length() const {
  double len = 0.0;
  for (size_t i = 0; i + 1 < waypoints.size(); ++i) {
    len += geom::Distance(waypoints[i], waypoints[i + 1]);
  }
  return len;
}

namespace {

/// Depth-first search for the longest root-to-tip polyline of a morphology.
void LongestPathFrom(const Morphology& morph, uint32_t section_id,
                     std::vector<Vec3> prefix, double prefix_len,
                     std::vector<Vec3>* best, double* best_len) {
  const Section& s = morph.section(section_id);
  // Append this section's points (skip the first if it repeats the prefix
  // end).
  for (size_t i = 0; i < s.points.size(); ++i) {
    if (!prefix.empty() && i == 0 &&
        geom::SquaredDistance(prefix.back(), s.points[0]) < 1e-6) {
      continue;
    }
    prefix.push_back(s.points[i]);
  }
  prefix_len += s.Length();

  std::vector<uint32_t> kids = morph.ChildrenOf(static_cast<int32_t>(section_id));
  if (kids.empty()) {
    if (prefix_len > *best_len) {
      *best_len = prefix_len;
      *best = prefix;
    }
    return;
  }
  for (uint32_t kid : kids) {
    LongestPathFrom(morph, kid, prefix, prefix_len, best, best_len);
  }
}

/// Resample a polyline at (approximately) uniform arc-length steps.
std::vector<Vec3> Resample(const std::vector<Vec3>& polyline, float step) {
  std::vector<Vec3> out;
  if (polyline.empty()) return out;
  out.push_back(polyline.front());
  double carried = 0.0;
  for (size_t i = 0; i + 1 < polyline.size(); ++i) {
    Vec3 a = polyline[i];
    Vec3 b = polyline[i + 1];
    double seg_len = geom::Distance(a, b);
    double t = step - carried;
    while (t <= seg_len) {
      out.push_back(geom::Lerp(a, b, static_cast<float>(t / seg_len)));
      t += step;
    }
    carried = (carried + seg_len);
    carried = std::fmod(carried, step);
  }
  if (out.size() < 2) out.push_back(polyline.back());
  return out;
}

}  // namespace

Result<NavigationPath> FollowBranchPath(const Circuit& circuit, uint32_t gid,
                                        float step, uint64_t seed) {
  (void)seed;  // deterministic: the longest path is unique for our data
  if (gid >= circuit.NumNeurons()) {
    return Status::InvalidArgument("FollowBranchPath: no such neuron");
  }
  if (!(step > 0.0f)) {
    return Status::InvalidArgument("FollowBranchPath: step must be positive");
  }
  const Morphology& morph = circuit.neuron(gid).morphology;
  if (morph.NumSections() == 0) {
    return Status::NotFound("FollowBranchPath: neuron has no sections");
  }

  std::vector<Vec3> best;
  double best_len = -1.0;
  for (const auto& s : morph.sections()) {
    if (s.parent != -1) continue;
    LongestPathFrom(morph, s.id, {}, 0.0, &best, &best_len);
  }
  if (best.size() < 2) {
    return Status::NotFound("FollowBranchPath: degenerate branch path");
  }

  NavigationPath path;
  path.waypoints = Resample(best, step);
  return path;
}

NavigationPath RandomWalkPath(const Aabb& domain, size_t steps, float step,
                              uint64_t seed) {
  Pcg32 rng(seed, 4);
  NavigationPath path;
  Vec3 pos = UniformPoint(&rng, domain);
  Vec3 dir = UnitVector(&rng);
  path.waypoints.push_back(pos);
  for (size_t i = 1; i < steps; ++i) {
    // Heavy direction churn: prediction-hostile by construction.
    Vec3 turn = UnitVector(&rng);
    dir = (dir * 0.3f + turn * 0.7f).Normalized();
    pos = pos + dir * step;
    // Reflect off the domain walls.
    for (int axis = 0; axis < 3; ++axis) {
      if (pos[axis] < domain.min[axis] || pos[axis] > domain.max[axis]) {
        dir[axis] = -dir[axis];
        pos[axis] = std::clamp(pos[axis], domain.min[axis], domain.max[axis]);
      }
    }
    path.waypoints.push_back(pos);
  }
  return path;
}

std::vector<Aabb> PathQueries(const NavigationPath& path, float side) {
  std::vector<Aabb> out;
  out.reserve(path.waypoints.size());
  for (const auto& w : path.waypoints) out.push_back(Aabb::Cube(w, side));
  return out;
}

WorkloadQuery MixedWorkloadQuery(const Aabb& domain,
                                 const geom::ElementVec& elements,
                                 const MixedWorkloadOptions& options,
                                 uint64_t sub_seed) {
  Pcg32 rng(sub_seed, 7);
  WorkloadQuery query;
  query.sub_seed = sub_seed;

  double kind_draw = rng.NextDouble();
  if (kind_draw < options.join_fraction) {
    query.kind = QueryKind::kJoin;
    query.epsilon = static_cast<float>(
        rng.Uniform(options.epsilon_min, options.epsilon_max));
    return query;
  }
  if (kind_draw < options.join_fraction + options.walkthrough_fraction) {
    // A short random-walk exploration path. Regenerable from the sub_seed
    // alone, like every other query kind: the walk seed derives from it.
    query.kind = QueryKind::kWalkthrough;
    NavigationPath walk = RandomWalkPath(domain, options.walk_steps,
                                         options.walk_step,
                                         rng.NextU64());
    query.path = PathQueries(walk, options.walk_side);
    return query;
  }
  if (kind_draw < options.join_fraction + options.walkthrough_fraction +
                      options.update_fraction) {
    // A mutation. Inserts and moves get an element-scale bounding cube
    // (data-centered or uniform, like point queries); erase/move targets
    // are picked by rank against the live set at replay time.
    query.kind = QueryKind::kUpdate;
    double op_draw = rng.NextDouble();
    if (op_draw < options.update_insert_weight) {
      query.update_op = WorkloadUpdateOp::kInsert;
    } else if (op_draw <
               options.update_insert_weight + options.update_erase_weight) {
      query.update_op = WorkloadUpdateOp::kErase;
    } else {
      query.update_op = WorkloadUpdateOp::kMove;
    }
    query.update_rank = rng.NextU64();
    Vec3 center = UniformPoint(&rng, domain);
    if (!elements.empty() && rng.NextBool(options.data_centered_fraction)) {
      const auto& e =
          elements[rng.NextBounded(static_cast<uint32_t>(elements.size()))];
      center = e.bounds.Center();
    }
    float side = static_cast<float>(
        rng.Uniform(options.update_side_min, options.update_side_max));
    query.box = Aabb::Cube(center, side);
    return query;
  }
  query.kind = kind_draw < options.join_fraction +
                               options.walkthrough_fraction +
                               options.update_fraction +
                               options.knn_fraction
                   ? QueryKind::kKnn
                   : QueryKind::kRange;

  Vec3 center = UniformPoint(&rng, domain);
  if (!elements.empty() && rng.NextBool(options.data_centered_fraction)) {
    const auto& e =
        elements[rng.NextBounded(static_cast<uint32_t>(elements.size()))];
    center = e.bounds.Center();
  }

  if (query.kind == QueryKind::kKnn) {
    query.point = center;
    uint32_t span = options.k_max >= options.k_min
                        ? static_cast<uint32_t>(options.k_max -
                                                options.k_min + 1)
                        : 1;
    query.k = options.k_min + rng.NextBounded(span);
  } else {
    float side =
        static_cast<float>(rng.Uniform(options.side_min, options.side_max));
    query.box = Aabb::Cube(center, side);
  }
  return query;
}

std::vector<WorkloadQuery> MixedWorkload(const Aabb& domain,
                                         const geom::ElementVec& elements,
                                         const MixedWorkloadOptions& options,
                                         size_t n, uint64_t seed) {
  std::vector<WorkloadQuery> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(MixedWorkloadQuery(domain, elements, options, seed + i));
  }
  return out;
}

SegmentDataset UniformSegments(size_t n, const Aabb& domain, float length_mean,
                               float length_std, float radius, uint64_t seed) {
  Pcg32 rng(seed, 5);
  SegmentDataset out;
  for (size_t i = 0; i < n; ++i) {
    Vec3 mid = UniformPoint(&rng, domain);
    Vec3 dir = UnitVector(&rng);
    float half = 0.5f * std::max(0.25f, static_cast<float>(rng.Gaussian(
                                            length_mean, length_std)));
    out.Add(geom::Segment(mid - dir * half, mid + dir * half, radius),
            static_cast<geom::ElementId>(i));
  }
  return out;
}

SegmentDataset ClusteredSegments(size_t n, const Aabb& domain, size_t clusters,
                                 float sigma, float length_mean, float radius,
                                 uint64_t seed) {
  Pcg32 rng(seed, 6);
  std::vector<Vec3> centers;
  centers.reserve(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    centers.push_back(UniformPoint(&rng, domain));
  }
  SegmentDataset out;
  for (size_t i = 0; i < n; ++i) {
    const Vec3& c = centers[rng.NextBounded(static_cast<uint32_t>(clusters))];
    Vec3 mid(c.x + static_cast<float>(rng.Gaussian(0, sigma)),
             c.y + static_cast<float>(rng.Gaussian(0, sigma)),
             c.z + static_cast<float>(rng.Gaussian(0, sigma)));
    Vec3 dir = UnitVector(&rng);
    float half = 0.5f * length_mean;
    out.Add(geom::Segment(mid - dir * half, mid + dir * half, radius),
            static_cast<geom::ElementId>(i));
  }
  return out;
}

namespace {

// Clamp a point into `domain` so skewed clouds stay inside the circuit
// bounding box (Gaussian tails would otherwise leak out of it).
Vec3 ClampInto(const Vec3& p, const Aabb& domain) {
  auto clamp1 = [](float v, float lo, float hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  return Vec3(clamp1(p.x, domain.min.x, domain.max.x),
              clamp1(p.y, domain.min.y, domain.max.y),
              clamp1(p.z, domain.min.z, domain.max.z));
}

// Cube element around `center` with side jittered in [0.5, 1.0] * elem_side.
geom::SpatialElement CloudElement(Pcg32* rng, const Vec3& center,
                                  const Aabb& domain, float elem_side,
                                  size_t id) {
  float side =
      elem_side * (0.5f + 0.5f * static_cast<float>(rng->NextDouble()));
  return geom::SpatialElement(static_cast<geom::ElementId>(id),
                              Aabb::Cube(ClampInto(center, domain), side));
}

}  // namespace

geom::ElementVec ClusteredElements(size_t n, const Aabb& domain,
                                   size_t clusters, float sigma,
                                   float elem_side, uint64_t seed) {
  Pcg32 rng(seed, 8);
  std::vector<Vec3> centers;
  centers.reserve(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    centers.push_back(UniformPoint(&rng, domain));
  }
  geom::ElementVec out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Vec3& c = centers[rng.NextBounded(static_cast<uint32_t>(clusters))];
    Vec3 p(c.x + static_cast<float>(rng.Gaussian(0, sigma)),
           c.y + static_cast<float>(rng.Gaussian(0, sigma)),
           c.z + static_cast<float>(rng.Gaussian(0, sigma)));
    out.push_back(CloudElement(&rng, p, domain, elem_side, i));
  }
  return out;
}

geom::ElementVec PowerLawElements(size_t n, const Aabb& domain,
                                  size_t clusters, double alpha,
                                  float sigma_max, float elem_side,
                                  uint64_t seed) {
  Pcg32 rng(seed, 9);
  std::vector<Vec3> centers;
  std::vector<float> sigmas;
  std::vector<double> cdf;
  centers.reserve(clusters);
  sigmas.reserve(clusters);
  cdf.reserve(clusters);
  double total = 0.0;
  for (size_t r = 0; r < clusters; ++r) {
    centers.push_back(UniformPoint(&rng, domain));
    // Low ranks are both more populous (1/(r+1)^alpha of the draws) and
    // tighter (sigma shrinks with rank): dense cores, long sparse tail.
    sigmas.push_back(sigma_max *
                     static_cast<float>(std::pow(r + 1.0, -alpha / 3.0)));
    total += std::pow(r + 1.0, -alpha);
    cdf.push_back(total);
  }
  geom::ElementVec out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double u = rng.NextDouble() * total;
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (r >= clusters) r = clusters - 1;
    const Vec3& c = centers[r];
    const float s = sigmas[r];
    Vec3 p(c.x + static_cast<float>(rng.Gaussian(0, s)),
           c.y + static_cast<float>(rng.Gaussian(0, s)),
           c.z + static_cast<float>(rng.Gaussian(0, s)));
    out.push_back(CloudElement(&rng, p, domain, elem_side, i));
  }
  return out;
}

}  // namespace neuro
}  // namespace neurodb
