#include "engine/advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "engine/query_engine.h"

namespace neurodb {
namespace engine {

using geom::Aabb;
using geom::Vec3;

Status WorkloadProfile::Validate() const {
  if (range_weight < 0.0 || knn_weight < 0.0) {
    return Status::InvalidArgument("WorkloadProfile: negative weight");
  }
  if (range_weight + knn_weight <= 0.0) {
    return Status::InvalidArgument("WorkloadProfile: all weights zero");
  }
  if (!(range_side > 0.0f)) {
    return Status::InvalidArgument("WorkloadProfile: range_side must be > 0");
  }
  if (knn_weight > 0.0 && knn_k == 0) {
    return Status::InvalidArgument("WorkloadProfile: knn_k must be >= 1");
  }
  if (data_centered < 0.0 || data_centered > 1.0) {
    return Status::InvalidArgument(
        "WorkloadProfile: data_centered must be in [0, 1]");
  }
  return Status::OK();
}

namespace {

/// Aggregates of one set of boxes (an R-tree level, FLAT's data pages) the
/// Kamel–Faloutsos expected-intersection formula needs.
struct BoxAggregate {
  double count = 0.0;
  double sum_volume = 0.0;
  double sum_face_area = 0.0;  // Σ (ex*ey + ey*ez + ez*ex)
  double sum_extent = 0.0;     // Σ (ex + ey + ez)

  void Add(const Aabb& box) {
    const Vec3 e = box.Extent();
    count += 1.0;
    sum_volume += static_cast<double>(e.x) * e.y * e.z;
    sum_face_area += static_cast<double>(e.x) * e.y +
                     static_cast<double>(e.y) * e.z +
                     static_cast<double>(e.z) * e.x;
    sum_extent += static_cast<double>(e.x) + e.y + e.z;
  }
};

double VolumeOf(const Aabb& domain) {
  const Vec3 ext = domain.Extent();
  return std::max(1e-9, static_cast<double>(ext.x) * ext.y * ext.z);
}

/// Anchor model shared by every estimator: a query anchored uniformly in
/// the domain sees the full domain volume in its denominator; a query
/// anchored ON the data (DataCenteredQueries and the data-centered share of
/// MixedWorkload) lands where elements actually are, so its effective
/// universe is the occupied volume. The two regimes are blended by the
/// profile's data_centered fraction.
struct AnchorModel {
  double domain_volume = 1.0;
  double occupied_volume = 1.0;  // capped by domain_volume
  double data_centered = 0.5;

  /// Expected value of num/denominator under the blended anchor.
  double Expect(double num) const {
    return data_centered * (num / occupied_volume) +
           (1.0 - data_centered) * (num / domain_volume);
  }
};

/// Expected number of boxes a query cube of side `q` intersects:
/// Σ_b Π_d (s_d + q) / D_d via the aggregate expansion under the blended
/// anchor model, clamped to [0, count].
double ExpectedIntersections(const BoxAggregate& a, const AnchorModel& anchor,
                             double q) {
  if (a.count <= 0.0) return 0.0;
  const double num = a.sum_volume + q * a.sum_face_area +
                     q * q * a.sum_extent + q * q * q * a.count;
  return std::min(a.count, anchor.Expect(num));
}

/// Equivalent query side for a kNN query: the edge of the cube expected to
/// hold k elements at the measured density. `occupied_volume` is the
/// volume the data actually fills (Σ leaf/page MBR volumes, capped by the
/// domain) — using it instead of the raw domain keeps the estimate honest
/// on skewed circuits where most of the domain is empty.
double KnnEquivalentSide(size_t k, size_t population, const Aabb& domain,
                         double occupied_volume) {
  if (population == 0) return 0.0;
  const Vec3 ext = domain.Extent();
  const double dv = std::max(1e-9, static_cast<double>(ext.x) * ext.y * ext.z);
  const double vol = std::min(dv, std::max(1e-9, occupied_volume));
  const double per_element = vol / static_cast<double>(population);
  return std::cbrt(per_element * static_cast<double>(std::min(k, population)));
}

/// Expected pages for one R-tree query of side `q`: the Kamel–Faloutsos sum
/// over every level of the profile (every visited node is one page in the
/// paged R-tree's cost model), floored at one node per level (the root
/// descent).
double RTreeExpectedPages(const std::vector<rtree::LevelStats>& levels,
                          const AnchorModel& anchor, double q) {
  double pages = 0.0;
  for (const auto& ls : levels) {
    BoxAggregate agg;
    agg.count = static_cast<double>(ls.nodes);
    agg.sum_volume = ls.total_volume;
    agg.sum_face_area = ls.sum_face_area;
    agg.sum_extent = ls.sum_extent;
    pages += std::max(1.0, ExpectedIntersections(agg, anchor, q));
  }
  return pages;
}

/// Σ leaf-level MBR volume of an R-tree profile (occupied-volume proxy).
double RTreeLeafVolume(const std::vector<rtree::LevelStats>& levels) {
  return levels.empty() ? 0.0 : levels.front().total_volume;
}

struct GridGeometry {
  double total_pages = 0.0;
  Vec3 cell_size{1, 1, 1};
  Vec3 widen{0, 0, 0};  // 2 * max element half-extent
};

/// Expected pages for one grid query of side `q`: the fraction of the
/// effective universe the widened cell block covers, applied to the
/// cell-major page count. The grid scans whole cell blocks, so the per-axis
/// span is the query side plus the widening margin plus one cell of
/// quantization. A kNN query costs the same as a range over its
/// kNN-equivalent cube: the page-tree browse reads only the pages within
/// the k-th distance. The occupied universe is modeled as a cube, so its
/// edge is the cube root of the occupied volume.
double GridExpectedPages(const GridGeometry& g, const AnchorModel& anchor,
                         double q) {
  if (g.total_pages <= 0.0) return 0.0;
  const double span[3] = {
      q + g.widen.x + g.cell_size.x,
      q + g.widen.y + g.cell_size.y,
      q + g.widen.z + g.cell_size.z,
  };
  const double dom_edge = std::cbrt(anchor.domain_volume);
  const double occ_edge = std::cbrt(anchor.occupied_volume);
  double frac_dom = 1.0, frac_occ = 1.0;
  for (int d = 0; d < 3; ++d) {
    frac_dom *= std::min(1.0, span[d] / std::max(1e-9, dom_edge));
    frac_occ *= std::min(1.0, span[d] / std::max(1e-9, occ_edge));
  }
  const double fraction = anchor.data_centered * frac_occ +
                          (1.0 - anchor.data_centered) * frac_dom;
  return std::max(1.0, g.total_pages * fraction);
}

struct ShardModel {
  Aabb bounds;
  size_t population = 0;
  // Model of the shard's inner index, one of:
  std::vector<rtree::LevelStats> rtree_levels;  // inner R-tree
  GridGeometry grid;                            // inner grid
  bool is_rtree = false;
};

double ShardedExpectedPages(const std::vector<ShardModel>& shards,
                            const AnchorModel& anchor, size_t population,
                            double q) {
  double pages = 0.0;
  for (const auto& s : shards) {
    if (s.population == 0 || !s.bounds.IsValid()) continue;
    const double share =
        population == 0 ? 0.0
                        : static_cast<double>(s.population) /
                              static_cast<double>(population);
    // Probability the query reaches this shard: a data-centered anchor
    // lands in it with its population share; a uniform anchor intersects
    // its bounds per Kamel–Faloutsos.
    BoxAggregate one;
    one.Add(s.bounds);
    const double kf_num = one.sum_volume + q * one.sum_face_area +
                          q * q * one.sum_extent + q * q * q;
    const double hit = std::min(
        1.0, anchor.data_centered * share +
                 (1.0 - anchor.data_centered) * kf_num / anchor.domain_volume);
    // The shard's inner index spans only its own bounds and holds its own
    // share of the occupied volume.
    AnchorModel inner_anchor;
    inner_anchor.domain_volume = VolumeOf(s.bounds);
    inner_anchor.occupied_volume = std::min(
        inner_anchor.domain_volume,
        std::max(1e-9, anchor.occupied_volume * std::max(share, 1e-3)));
    inner_anchor.data_centered = anchor.data_centered;
    const double inner =
        s.is_rtree ? RTreeExpectedPages(s.rtree_levels, inner_anchor, q)
                   : GridExpectedPages(s.grid, inner_anchor, q);
    pages += hit * inner;
  }
  return std::max(1.0, pages);
}

std::string FormatPages(double pages) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << pages;
  return os.str();
}

}  // namespace

Result<AdvisorDecision> QueryEngine::Advise(const WorkloadProfile& profile) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("Advise"));
  NEURODB_RETURN_NOT_OK(profile.Validate());

  const Aabb& domain = domain_;
  const size_t population = live_bounds_.size();
  const double wr = profile.range_weight / (profile.range_weight +
                                            profile.knn_weight);
  const double wk = 1.0 - wr;
  const double q_range = profile.range_side;

  // --- Per-backend structure models, measured from what each built. ---

  // FLAT: the crawl reads exactly the data pages intersecting the region it
  // walks; the seed tree is memory-resident and charges no pages.
  BoxAggregate flat_pages;
  if (flat_ != nullptr && flat_->has_index()) {
    const flat::FlatIndex& index = flat_->index();
    for (uint32_t i = 0; i < index.NumPages(); ++i) {
      flat_pages.Add(index.PageBounds(i));
    }
  }

  // R-tree: the per-level MBR profile of the built tree.
  std::vector<rtree::LevelStats> rtree_levels;
  if (rtree_ != nullptr && !rtree_->base_empty()) {
    rtree_levels = rtree_->tree().tree().LevelProfile();
  }

  // Grid: cell geometry plus the cell-major page count.
  GridGeometry grid_geo;
  if (grid_ != nullptr) {
    grid_geo.total_pages =
        static_cast<double>(grid_->Stats().index_pages);
    grid_geo.cell_size = grid_->cell_size();
    const Vec3 h = grid_->max_half_extent();
    grid_geo.widen = {2.0f * h.x, 2.0f * h.y, 2.0f * h.z};
  }

  // Sharded: per-shard bounds + population + inner model.
  std::vector<ShardModel> shards;
  if (sharded_ != nullptr) {
    const bool inner_rtree =
        sharded_->options().inner_index == ShardIndexKind::kRTree;
    for (size_t s = 0; s < sharded_->NumShards(); ++s) {
      ShardModel model;
      model.bounds = sharded_->shard_bounds(s);
      model.population = sharded_->ShardPopulation(s);
      model.is_rtree = inner_rtree;
      const BaseDeltaBackend& inner = sharded_->shard(s);
      if (inner_rtree) {
        const auto& rt = static_cast<const PagedRTreeBackend&>(inner);
        if (!rt.base_empty()) model.rtree_levels = rt.tree().tree().LevelProfile();
      } else {
        const auto& gb = static_cast<const GridBackend&>(inner);
        model.grid.total_pages = static_cast<double>(gb.Stats().index_pages);
        model.grid.cell_size = gb.cell_size();
        const Vec3 h = gb.max_half_extent();
        model.grid.widen = {2.0f * h.x, 2.0f * h.y, 2.0f * h.z};
      }
      shards.push_back(std::move(model));
    }
  }

  // Occupied volume (for kNN density and the data-centered anchor blend):
  // prefer the R-tree's leaf MBRs, fall back to FLAT's page MBRs, then the
  // domain.
  double occupied = RTreeLeafVolume(rtree_levels);
  if (occupied <= 0.0) occupied = flat_pages.sum_volume;
  const double q_knn =
      KnnEquivalentSide(profile.knn_k, population, domain, occupied);

  AnchorModel anchor;
  anchor.domain_volume = VolumeOf(domain);
  anchor.occupied_volume = std::min(
      anchor.domain_volume, std::max(1e-9, occupied));
  anchor.data_centered = profile.data_centered;

  // --- Score every candidate. ---
  AdvisorDecision decision;
  for (size_t i = 0; i < backends_.size(); ++i) {
    const SpatialBackend* backend = backends_[i].get();
    BackendCostEstimate est;
    est.backend = backend->name();
    if (backend == flat_) {
      est.choice = BackendChoice::kFlat;
      est.range_pages = std::max(
          1.0, ExpectedIntersections(flat_pages, anchor, q_range));
      est.knn_pages =
          std::max(1.0, ExpectedIntersections(flat_pages, anchor, q_knn));
    } else if (backend == rtree_) {
      est.choice = BackendChoice::kRTree;
      est.range_pages = RTreeExpectedPages(rtree_levels, anchor, q_range);
      est.knn_pages = RTreeExpectedPages(rtree_levels, anchor, q_knn);
    } else if (backend == grid_) {
      est.choice = BackendChoice::kGrid;
      est.range_pages = GridExpectedPages(grid_geo, anchor, q_range);
      est.knn_pages = GridExpectedPages(grid_geo, anchor, q_knn);
    } else if (backend == sharded_) {
      est.choice = BackendChoice::kSharded;
      est.range_pages =
          ShardedExpectedPages(shards, anchor, population, q_range);
      est.knn_pages = ShardedExpectedPages(shards, anchor, population, q_knn);
    } else {
      continue;  // externally registered backends are not modeled
    }
    est.cost = wr * est.range_pages + wk * est.knn_pages;
    if (i < backend_metrics_.size() &&
        backend_metrics_[i].queries != nullptr) {
      const uint64_t queries = backend_metrics_[i].queries->value();
      if (queries > 0) {
        est.measured_pages_per_query =
            static_cast<double>(backend_metrics_[i].pages_read->value()) /
            static_cast<double>(queries);
      }
    }
    decision.estimates.push_back(std::move(est));
  }
  if (decision.estimates.empty()) {
    return Status::Internal("Advise: no built-in backends to rank");
  }

  // Rank. Once every candidate has executed queries, the live pages/query
  // counters ARE the workload's measured cost — rank by them and keep the
  // model as the cold-start path (and the per-candidate report).
  decision.from_measurements = true;
  for (const auto& est : decision.estimates) {
    if (est.measured_pages_per_query < 0.0) decision.from_measurements = false;
  }
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& est : decision.estimates) {
    const double rank_cost = decision.from_measurements
                                 ? est.measured_pages_per_query
                                 : est.cost;
    if (rank_cost < best_cost) {
      best_cost = rank_cost;
      decision.backend = est.choice;
      decision.backend_name = est.backend;
    }
  }

  std::ostringstream rationale;
  rationale << decision.backend_name << " expects the fewest pages ("
            << FormatPages(best_cost) << "/query, "
            << (decision.from_measurements ? "measured" : "modeled")
            << ") for " << population << " elements; candidates:";
  for (const auto& est : decision.estimates) {
    rationale << " " << est.backend << "=" << FormatPages(est.cost);
    if (est.measured_pages_per_query >= 0.0) {
      rationale << " (measured " << FormatPages(est.measured_pages_per_query)
                << ")";
    }
  }
  decision.rationale = rationale.str();

  // Decision observability: how often the advisor ran, what it picked, and
  // the modeled cost per candidate (scaled to integer page-milli-units).
  if (metrics_ != nullptr) {
    obs::Bump(metrics_->counter("advisor.runs"));
    obs::Bump(metrics_->counter("advisor.decision." + decision.backend_name));
    for (const auto& est : decision.estimates) {
      obs::Set(metrics_->gauge("advisor.cost_millipages." + est.backend),
               static_cast<uint64_t>(est.cost * 1000.0));
    }
  }
  return decision;
}

}  // namespace engine
}  // namespace neurodb
