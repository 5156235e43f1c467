// NeuroDB — workload generators.
//
// Produces the query mixes the demo exhibits run: uniform / data-centered /
// layer-targeted range queries (FLAT, Section 2.2), branch-following and
// random-walk navigation paths (SCOUT, Section 3.2), and controlled
// synthetic segment clouds for density sweeps and join property tests.

#ifndef NEURODB_NEURO_WORKLOAD_H_
#define NEURODB_NEURO_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "neuro/circuit.h"

namespace neurodb {
namespace neuro {

// ---------------------------------------------------------------------------
// Range query workloads
// ---------------------------------------------------------------------------

/// `n` cubes of side `side` with centers uniform in `domain`.
std::vector<geom::Aabb> UniformQueries(const geom::Aabb& domain, float side,
                                       size_t n, uint64_t seed);

/// `n` cubes centered on randomly chosen element centers (guaranteed
/// non-empty results; the demo audience clicks *on* the model).
std::vector<geom::Aabb> DataCenteredQueries(const geom::ElementVec& elements,
                                            float side, size_t n,
                                            uint64_t seed);

/// `n` cubes whose centers have y in [y_lo, y_hi] — targets one cortical
/// layer, i.e. a dense or a sparse region of the model.
std::vector<geom::Aabb> LayerQueries(const geom::Aabb& domain, float y_lo,
                                     float y_hi, float side, size_t n,
                                     uint64_t seed);

// ---------------------------------------------------------------------------
// Navigation (moving range query) workloads
// ---------------------------------------------------------------------------

/// A polyline of view positions; the session issues one range query per
/// waypoint ("at every step they retrieve the surroundings of the branch",
/// paper Section 3).
struct NavigationPath {
  std::vector<geom::Vec3> waypoints;

  double Length() const;
};

/// Follow neuron `gid`'s longest root-to-tip branch path, resampled every
/// `step` micrometres. Fails if the neuron has no sections.
Result<NavigationPath> FollowBranchPath(const Circuit& circuit, uint32_t gid,
                                        float step, uint64_t seed);

/// A jagged random walk through `domain` ("moving through the model
/// randomly", paper Section 3.2) — the adversarial case for prefetching.
NavigationPath RandomWalkPath(const geom::Aabb& domain, size_t steps,
                              float step, uint64_t seed);

/// One range query (cube of side `side`) per waypoint.
std::vector<geom::Aabb> PathQueries(const NavigationPath& path, float side);

// ---------------------------------------------------------------------------
// Mixed differential-testing workloads (tests/diff_harness.h)
// ---------------------------------------------------------------------------

/// Kind of one differential-workload query.
enum class QueryKind {
  kRange,
  kKnn,
  kJoin,
  kWalkthrough,
  /// A mutation of the loaded dataset (insert / erase / move). The
  /// concrete target of an erase or move is resolved against the *live*
  /// id set at replay time (updates are inherently history-dependent) —
  /// the query carries a rank that picks deterministically among the ids
  /// alive when it executes.
  kUpdate,
};

/// The mutation flavor of a kUpdate workload query (kept free of engine
/// types — neuro:: sits below engine:: in the layering; the harness maps
/// it onto engine::UpdateKind 1:1).
enum class WorkloadUpdateOp {
  kInsert,
  kErase,
  kMove,
};

/// One randomized query of a mixed workload. Every query remembers the
/// `sub_seed` that regenerates exactly it — the minimal reproduction handle
/// the differential harness prints on divergence.
struct WorkloadQuery {
  QueryKind kind = QueryKind::kRange;
  geom::Aabb box;      // kRange; kUpdate: insert/move bounds
  geom::Vec3 point;    // kKnn
  size_t k = 0;        // kKnn
  float epsilon = 0;   // kJoin
  /// kWalkthrough: a short random-walk path of range boxes replayed one
  /// Session::Step at a time.
  std::vector<geom::Aabb> path;
  /// kUpdate: which mutation, and — for erase/move — the rank that selects
  /// the target among the ids live at replay time (rank % live_count).
  WorkloadUpdateOp update_op = WorkloadUpdateOp::kInsert;
  uint64_t update_rank = 0;
  uint64_t sub_seed = 0;
};

/// Mix and shape of a randomized differential workload.
struct MixedWorkloadOptions {
  /// Fraction of queries that are kNN (the rest minus joins are ranges).
  double knn_fraction = 0.35;
  /// Fraction of queries that are epsilon-joins. Joins are far more
  /// expensive than point queries — keep this small.
  double join_fraction = 0.0;
  /// Fraction of queries that are session walkthroughs (a random-walk path
  /// of `walk_steps` range boxes replayed through Session::Step). Each
  /// walkthrough runs walk_steps range queries — keep this small too.
  double walkthrough_fraction = 0.0;
  /// Fraction of queries that are mutations (insert / erase / move),
  /// replayed through QueryEngine::ApplyUpdates by the update-parity
  /// harness. 0 keeps read-only workloads bit-identical to before this
  /// option existed.
  double update_fraction = 0.0;
  /// Insert : erase : move split of the update fraction (the remainder
  /// after insert_weight + erase_weight is moves).
  double update_insert_weight = 0.4;
  double update_erase_weight = 0.3;
  /// Bounding-cube side of inserted/moved elements, uniform in
  /// [update_side_min, update_side_max] — element-scale, not query-scale.
  float update_side_min = 1.0f;
  float update_side_max = 6.0f;
  /// Steps per walkthrough path.
  size_t walk_steps = 6;
  /// Step length of the walk, micrometres.
  float walk_step = 15.0f;
  /// Side of the range cube issued at each waypoint.
  float walk_side = 30.0f;
  /// Fraction of range/kNN queries anchored on a random element (dense,
  /// guaranteed-hit); the rest are uniform in the domain (sparse/empty).
  double data_centered_fraction = 0.5;
  /// Range query cube side, uniform in [side_min, side_max].
  float side_min = 8.0f;
  float side_max = 60.0f;
  /// kNN k, uniform in [k_min, k_max].
  size_t k_min = 1;
  size_t k_max = 32;
  /// Join epsilon, uniform in [epsilon_min, epsilon_max].
  float epsilon_min = 0.5f;
  float epsilon_max = 4.0f;
};

/// Regenerate the single query identified by `sub_seed` — the minimal
/// reproduction of a harness divergence. MixedWorkload(seed)[i] is exactly
/// MixedWorkloadQuery(..., seed + i).
WorkloadQuery MixedWorkloadQuery(const geom::Aabb& domain,
                                 const geom::ElementVec& elements,
                                 const MixedWorkloadOptions& options,
                                 uint64_t sub_seed);

/// `n` independent randomized queries; query i is derived from seed + i.
std::vector<WorkloadQuery> MixedWorkload(const geom::Aabb& domain,
                                         const geom::ElementVec& elements,
                                         const MixedWorkloadOptions& options,
                                         size_t n, uint64_t seed);

// ---------------------------------------------------------------------------
// Synthetic segment clouds (controlled density experiments)
// ---------------------------------------------------------------------------

/// `n` capsules with uniform random midpoints in `domain`, uniform random
/// orientation, Gaussian length and fixed radius.
SegmentDataset UniformSegments(size_t n, const geom::Aabb& domain,
                               float length_mean, float length_std,
                               float radius, uint64_t seed);

/// `n` capsules grouped around `clusters` Gaussian cluster centers with
/// spatial sigma `sigma` (skewed data; the PBSM-adversarial case).
SegmentDataset ClusteredSegments(size_t n, const geom::Aabb& domain,
                                 size_t clusters, float sigma,
                                 float length_mean, float radius,
                                 uint64_t seed);

// ---------------------------------------------------------------------------
// Skewed element clouds (backend comparison workloads)
// ---------------------------------------------------------------------------

/// `n` elements (ids 0..n-1) grouped around `clusters` Gaussian cluster
/// centers with spatial sigma `sigma`; element boxes are cubes with side
/// uniform in [0.5, 1.0] * elem_side, centers clamped into `domain`. The
/// clustered circuit where a tight hierarchy (R-tree) wins and a uniform
/// grid overfetches.
geom::ElementVec ClusteredElements(size_t n, const geom::Aabb& domain,
                                   size_t clusters, float sigma,
                                   float elem_side, uint64_t seed);

/// Power-law density: cluster r (of `clusters`) draws population weight
/// 1/(r+1)^alpha and shrinks its sigma with rank — a few huge dense cores
/// plus a long sparse tail, the deep-circuit skew of the paper's dense
/// datasets. Same element-box shape rules as ClusteredElements.
geom::ElementVec PowerLawElements(size_t n, const geom::Aabb& domain,
                                  size_t clusters, double alpha,
                                  float sigma_max, float elem_side,
                                  uint64_t seed);

}  // namespace neuro
}  // namespace neurodb

#endif  // NEURODB_NEURO_WORKLOAD_H_
