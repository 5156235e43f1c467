// kNN tests: brute-force ground truth on random circuits for every
// backend, tie-breaking determinism of the shared (distance, id) order,
// exact answers and exact page reads of the best-first page browse (FLAT
// and the grid) on adversarial inputs, and Status propagation for
// degenerate inputs (k == 0, k beyond the dataset, non-finite points) at
// every API boundary — backend, engine, session and batch.

#include "geom/knn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "engine/query_engine.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::KnnHit;
using geom::Vec3;

neuro::Circuit MakeCircuit(uint32_t neurons, uint64_t seed) {
  neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  auto circuit = neuro::CircuitGenerator(params).Generate();
  EXPECT_TRUE(circuit.ok());
  return std::move(circuit).value();
}

/// Pages whose MINDIST to `p` is at most `reach`: exactly the pages a
/// best-first browse for a k-th distance of `reach` must read.
uint64_t PagesWithin(const std::vector<Aabb>& page_bounds, const Vec3& p,
                     double reach) {
  uint64_t n = 0;
  for (const Aabb& bounds : page_bounds) {
    if (geom::KnnDistance(p, bounds) <= reach) ++n;
  }
  return n;
}

std::vector<Aabb> FlatPageBounds(const flat::FlatIndex& index) {
  std::vector<Aabb> out;
  for (uint32_t i = 0; i < index.NumPages(); ++i) {
    out.push_back(index.PageBounds(i));
  }
  return out;
}

/// Each page's MBR, from the elements the store holds on it.
std::vector<Aabb> StorePageBounds(const storage::PageStore& store) {
  std::vector<Aabb> out;
  for (storage::PageId id = 0; id < store.NumPages(); ++id) {
    Aabb bounds;
    for (const auto& e : store.Peek(id)->elements) bounds.Extend(e.bounds);
    out.push_back(bounds);
  }
  return out;
}

/// FLAT and Grid kNN against brute force and the grid's scan oracle, each
/// reading exactly the pages within the k-th hit's distance.
void CheckBrowse(const geom::ElementVec& elements,
                 const std::vector<Vec3>& points,
                 const std::vector<size_t>& ks, size_t elems_per_page) {
  flat::FlatOptions flat_options;
  flat_options.elems_per_page = elems_per_page;
  GridOptions grid_options;
  grid_options.elems_per_page = elems_per_page;
  FlatBackend flat(flat_options);
  GridBackend grid(grid_options);
  ASSERT_TRUE(flat.Build(elements).ok());
  ASSERT_TRUE(grid.Build(elements).ok());
  const std::vector<Aabb> flat_pages = FlatPageBounds(flat.index());
  const std::vector<Aabb> grid_pages = StorePageBounds(*grid.store());

  for (const Vec3& p : points) {
    for (size_t k : ks) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " at (" << p.x
                                        << ", " << p.y << ", " << p.z << ")");
      const std::vector<KnnHit> truth = geom::BruteForceKnn(elements, p, k);
      ASSERT_FALSE(truth.empty());
      const double reach = truth.back().distance;

      storage::PoolSet scan_pools = grid.MakePoolSet(64);
      std::vector<KnnHit> scan;
      ASSERT_TRUE(grid.KnnScanQuery(p, k, &scan_pools, &scan).ok());
      EXPECT_EQ(scan, truth);

      for (auto [backend, pages] :
           {std::pair<SpatialBackend*, const std::vector<Aabb>*>{&flat,
                                                                 &flat_pages},
            {&grid, &grid_pages}}) {
        storage::PoolSet pools = backend->MakePoolSet(64);
        std::vector<KnnHit> hits;
        RangeStats stats;
        ASSERT_TRUE(backend->KnnQuery(p, k, &pools, &hits, &stats).ok());
        EXPECT_EQ(hits, truth) << backend->name();
        EXPECT_EQ(stats.pages_read, PagesWithin(*pages, p, reach))
            << backend->name();
        if (k >= elements.size()) {
          EXPECT_EQ(stats.pages_read, pages->size()) << backend->name();
        }
      }
    }
  }
}

class KnnFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    circuit_ = MakeCircuit(10, 404);
    EngineOptions options;
    options.flat.elems_per_page = 64;
    options.grid.elems_per_page = 64;
    db_ = std::make_unique<QueryEngine>(options);
    ASSERT_TRUE(db_->LoadCircuit(circuit_).ok());
    elements_ = circuit_.FlattenSegments().Elements();
  }

  neuro::Circuit circuit_;
  std::unique_ptr<QueryEngine> db_;
  geom::ElementVec elements_;
};

// --------------------------------------------------------------------------
// Ground truth parity
// --------------------------------------------------------------------------

TEST_F(KnnFixture, AllBackendsMatchBruteForceOnRandomCircuits) {
  // Query points: on the data, uniform in the domain, and far outside it.
  std::vector<Vec3> points;
  auto anchors = neuro::DataCenteredQueries(elements_, 1.0f, 5, 17);
  for (const Aabb& box : anchors) points.push_back(box.Center());
  auto uniform = neuro::UniformQueries(db_->domain(), 1.0f, 5, 18);
  for (const Aabb& box : uniform) points.push_back(box.Center());
  Vec3 far = db_->domain().max + Vec3(500, 500, 500);
  points.push_back(far);

  for (const Vec3& p : points) {
    for (size_t k : {1u, 7u, 64u}) {
      std::vector<KnnHit> truth = geom::BruteForceKnn(elements_, p, k);
      for (BackendChoice choice :
           {BackendChoice::kFlat, BackendChoice::kRTree, BackendChoice::kGrid,
            BackendChoice::kSharded}) {
        KnnRequest request;
        request.point = p;
        request.k = k;
        request.backend = choice;
        auto report = db_->Execute(request);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_EQ(report->rows.size(), 1u);
        EXPECT_EQ(report->hits, truth)
            << report->rows[0].method << " diverges from brute force at ("
            << p.x << ", " << p.y << ", " << p.z << "), k=" << k;
      }
    }
  }
}

TEST_F(KnnFixture, KAllCrossChecksAllBackends) {
  auto uniform = neuro::UniformQueries(db_->domain(), 1.0f, 8, 23);
  for (const Aabb& box : uniform) {
    KnnRequest request;
    request.point = box.Center();
    request.k = 12;
    request.backend = BackendChoice::kAll;
    auto report = db_->Execute(request);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->rows.size(), 4u);
    EXPECT_EQ(report->rows[0].method, "FLAT");
    EXPECT_EQ(report->rows[1].method, "R-Tree");
    EXPECT_EQ(report->rows[2].method, "Grid");
    EXPECT_EQ(report->rows[3].method, "Sharded");
    EXPECT_TRUE(report->results_match);
    EXPECT_EQ(report->hits.size(), 12u);
    // Ascending under the shared (distance, id) order.
    for (size_t i = 1; i < report->hits.size(); ++i) {
      EXPECT_LT(report->hits[i - 1], report->hits[i]);
    }
  }
}

// --------------------------------------------------------------------------
// Tie-breaking determinism
// --------------------------------------------------------------------------

TEST(KnnTieBreakTest, EqualDistancesResolveByAscendingId) {
  // Six unit cubes at the same distance from the origin along the axes,
  // plus two distractors farther out. Any k cutting through the tie must
  // pick the lowest ids, identically in every backend.
  geom::ElementVec elements;
  float d = 10.0f;
  std::vector<Vec3> centers = {{d, 0, 0},  {-d, 0, 0}, {0, d, 0},
                               {0, -d, 0}, {0, 0, d},  {0, 0, -d}};
  for (size_t i = 0; i < centers.size(); ++i) {
    elements.emplace_back(static_cast<ElementId>(i),
                          Aabb::Cube(centers[i], 1.0f));
  }
  elements.emplace_back(100, Aabb::Cube(Vec3(3 * d, 0, 0), 1.0f));
  elements.emplace_back(101, Aabb::Cube(Vec3(0, 3 * d, 0), 1.0f));

  FlatBackend flat;
  PagedRTreeBackend rtree;
  GridBackend grid;
  ShardedBackend sharded;
  ASSERT_TRUE(flat.Build(elements).ok());
  ASSERT_TRUE(rtree.Build(elements).ok());
  ASSERT_TRUE(grid.Build(elements).ok());
  ASSERT_TRUE(sharded.Build(elements).ok());

  std::vector<SpatialBackend*> backends = {&flat, &rtree, &grid, &sharded};
  for (size_t k : {1u, 4u, 6u, 8u}) {
    std::vector<KnnHit> truth = geom::BruteForceKnn(elements, Vec3(0, 0, 0), k);
    for (SpatialBackend* backend : backends) {
      storage::PoolSet pools = backend->MakePoolSet(64);
      std::vector<KnnHit> hits;
      ASSERT_TRUE(
          backend->KnnQuery(Vec3(0, 0, 0), k, &pools, &hits).ok());
      ASSERT_EQ(hits.size(), std::min(k, elements.size()))
          << backend->name();
      EXPECT_EQ(hits, truth) << backend->name() << " k=" << k;
      // The tie block resolves to ids 0, 1, 2, ... in order.
      for (size_t i = 0; i < std::min(k, centers.size()); ++i) {
        EXPECT_EQ(hits[i].id, static_cast<ElementId>(i))
            << backend->name() << " k=" << k;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Best-first page browse: exact answers and exact I/O
// --------------------------------------------------------------------------

TEST(KnnBrowseTest, TiesAtTheKthDistanceOnDifferentPages) {
  // Six unit cubes at exactly the same distance from the origin, one per
  // page, plus farther distractors. A k cutting through the tie must read
  // every tied page (its key equals the k-th distance) to find the lowest
  // ids. Rotating the ids over the positions puts the smallest tied id on
  // every page in turn, whatever order the browse pops equal keys in.
  const float d = 10.0f;
  const std::vector<Vec3> centers = {{d, 0, 0},  {-d, 0, 0}, {0, d, 0},
                                     {0, -d, 0}, {0, 0, d},  {0, 0, -d}};
  for (size_t rotation = 0; rotation < centers.size(); ++rotation) {
    SCOPED_TRACE(::testing::Message() << "rotation " << rotation);
    geom::ElementVec elements;
    for (size_t i = 0; i < centers.size(); ++i) {
      elements.emplace_back(
          static_cast<ElementId>((i + rotation) % centers.size()),
          Aabb::Cube(centers[i], 1.0f));
    }
    elements.emplace_back(100, Aabb::Cube(Vec3(3 * d, 0, 0), 1.0f));
    elements.emplace_back(101, Aabb::Cube(Vec3(0, 3 * d, d), 1.0f));
    elements.emplace_back(102, Aabb::Cube(Vec3(-2 * d, -2 * d, 0), 1.0f));
    CheckBrowse(elements, {Vec3(0, 0, 0)}, {1, 2, 3, 4, 5, 6, 7}, 1);
  }
}

TEST(KnnBrowseTest, DuplicateBoxesAcrossPages) {
  // Forty copies of one box spread over about ten pages, among a scattered
  // cloud: the whole tie block sits at one distance.
  geom::ElementVec elements;
  const Aabb twin = Aabb::Cube(Vec3(20, 20, 20), 2.0f);
  for (ElementId id = 0; id < 120; ++id) {
    if (id % 3 == 0) {
      elements.emplace_back(id, twin);
    } else {
      const float x = static_cast<float>((id * 37) % 50);
      const float y = static_cast<float>((id * 11) % 50);
      elements.emplace_back(id, Aabb::Cube(Vec3(x, y, 5.0f), 1.0f));
    }
  }
  CheckBrowse(elements, {Vec3(20, 20, 20), Vec3(24, 18, 30)},
              {1, 7, 40, 41, 60}, 4);
}

TEST(KnnBrowseTest, KBeyondDatasetReadsEveryPage) {
  geom::ElementVec elements;
  for (ElementId id = 0; id < 50; ++id) {
    const float v = static_cast<float>(id);
    elements.emplace_back(id, Aabb::Cube(Vec3(v, 2 * v, 50 - v), 1.5f));
  }
  CheckBrowse(elements, {Vec3(10, 10, 10)}, {50, 51, 500}, 6);
}

TEST(KnnBrowseTest, PointFarOutsideTheDomain) {
  geom::ElementVec elements;
  for (ElementId id = 0; id < 200; ++id) {
    const float v = static_cast<float>(id);
    elements.emplace_back(
        id, Aabb::Cube(Vec3(std::fmod(v * 7.3f, 40.0f),
                            std::fmod(v * 3.1f, 40.0f),
                            std::fmod(v * 5.7f, 40.0f)),
                       1.0f));
  }
  CheckBrowse(elements,
              {Vec3(1e5f, -3e4f, 2e5f), Vec3(-900, 20, 20), Vec3(20, 20, 7e6f)},
              {1, 9, 64}, 8);
}

TEST(KnnBrowseTest, ZeroExtentDomain) {
  // Every element is the same degenerate point box: the domain has no
  // extent, and every page's MBR is that point.
  geom::ElementVec elements;
  for (ElementId id = 0; id < 30; ++id) {
    elements.emplace_back(id, Aabb(Vec3(3, 4, 5), Vec3(3, 4, 5)));
  }
  CheckBrowse(elements, {Vec3(3, 4, 5), Vec3(0, 0, 0), Vec3(3, 4, 500)},
              {1, 5, 30, 31}, 4);
}

TEST_F(KnnFixture, BrowseReadsExactlyThePagesWithinTheKthDistance) {
  std::vector<Vec3> points;
  auto anchors = neuro::DataCenteredQueries(elements_, 1.0f, 6, 61);
  for (const Aabb& box : anchors) points.push_back(box.Center());
  auto uniform = neuro::UniformQueries(db_->domain(), 1.0f, 4, 62);
  for (const Aabb& box : uniform) points.push_back(box.Center());
  CheckBrowse(elements_, points, {1, 8, 100}, 64);
}

// --------------------------------------------------------------------------
// Grid browse vs the exhaustive-scan oracle
// --------------------------------------------------------------------------

TEST_F(KnnFixture, GridBrowseMatchesScanOracle) {
  GridBackend* grid = db_->grid_backend();
  std::vector<Vec3> points;
  auto anchors = neuro::DataCenteredQueries(elements_, 1.0f, 8, 51);
  for (const Aabb& box : anchors) points.push_back(box.Center());
  auto uniform = neuro::UniformQueries(db_->domain(), 1.0f, 8, 52);
  for (const Aabb& box : uniform) points.push_back(box.Center());
  points.push_back(db_->domain().min - Vec3(300, 10, 40));  // outside
  points.push_back(db_->domain().max + Vec3(5, 700, 0));

  for (const Vec3& p : points) {
    for (size_t k : {1u, 9u, 100u}) {
      storage::PoolSet browse_pools = grid->MakePoolSet(4096);
      storage::PoolSet scan_pools = grid->MakePoolSet(4096);
      std::vector<KnnHit> browse, scan;
      RangeStats browse_stats, scan_stats;
      ASSERT_TRUE(
          grid->KnnQuery(p, k, &browse_pools, &browse, &browse_stats).ok());
      ASSERT_TRUE(
          grid->KnnScanQuery(p, k, &scan_pools, &scan, &scan_stats).ok());
      EXPECT_EQ(browse, scan) << "k=" << k << " at (" << p.x << ", " << p.y
                              << ", " << p.z << ")";
      // The browse must never do more work than the full scan.
      EXPECT_LE(browse_stats.pages_read, scan_stats.pages_read);
      EXPECT_LE(browse_stats.elements_scanned, scan_stats.elements_scanned);
    }
  }
}

TEST_F(KnnFixture, GridBrowsePrunesOnSmallK) {
  // For k == 1 on a data-centered point the browse should stop after a
  // handful of pages, well short of the whole grid.
  GridBackend* grid = db_->grid_backend();
  ASSERT_GT(grid->NumCells(), 8u);  // resolution high enough to prune
  uint64_t browse_total = 0, scan_total = 0;
  auto anchors = neuro::DataCenteredQueries(elements_, 1.0f, 10, 53);
  for (const Aabb& box : anchors) {
    storage::PoolSet browse_pools = grid->MakePoolSet(4096);
    storage::PoolSet scan_pools = grid->MakePoolSet(4096);
    std::vector<KnnHit> hits;
    RangeStats browse_stats, scan_stats;
    ASSERT_TRUE(grid->KnnQuery(box.Center(), 1, &browse_pools, &hits,
                               &browse_stats)
                    .ok());
    ASSERT_TRUE(grid->KnnScanQuery(box.Center(), 1, &scan_pools, &hits,
                                   &scan_stats)
                    .ok());
    browse_total += browse_stats.elements_scanned;
    scan_total += scan_stats.elements_scanned;
  }
  EXPECT_LT(browse_total, scan_total);
}

// --------------------------------------------------------------------------
// Degenerate inputs: Status at every boundary
// --------------------------------------------------------------------------

TEST_F(KnnFixture, EngineRejectsKZero) {
  KnnRequest request;
  request.point = db_->domain().Center();
  request.k = 0;
  EXPECT_TRUE(db_->Execute(request).status().IsInvalidArgument());
}

TEST_F(KnnFixture, EngineRejectsNonFinitePoints) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    KnnRequest request;
    request.point = Vec3(bad, 0, 0);
    request.k = 3;
    EXPECT_TRUE(db_->Execute(request).status().IsInvalidArgument());
    request.point = Vec3(0, bad, 0);
    EXPECT_TRUE(db_->Execute(request).status().IsInvalidArgument());
    request.point = Vec3(0, 0, bad);
    EXPECT_TRUE(db_->Execute(request).status().IsInvalidArgument());
  }
}

TEST_F(KnnFixture, KBeyondDatasetClampsToEveryElement) {
  KnnRequest request;
  request.point = db_->domain().Center();
  request.k = elements_.size() + 1000;
  request.backend = BackendChoice::kAll;
  auto report = db_->Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->results_match);
  EXPECT_EQ(report->hits.size(), elements_.size());
}

TEST_F(KnnFixture, BatchPropagatesDegenerateKnnStatus) {
  KnnRequest bad_k;
  bad_k.point = db_->domain().Center();
  bad_k.k = 0;
  std::vector<QueryRequest> batch = {bad_k};
  EXPECT_TRUE(db_->ExecuteBatch(std::span<const QueryRequest>(batch))
                  .status()
                  .IsInvalidArgument());

  KnnRequest bad_point;
  bad_point.point = Vec3(std::numeric_limits<float>::quiet_NaN(), 0, 0);
  bad_point.k = 3;
  batch = {bad_point};
  EXPECT_TRUE(db_->ExecuteBatch(std::span<const QueryRequest>(batch))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(KnnFixture, SessionPropagatesDegenerateKnnStatus) {
  auto session = db_->OpenSession(scout::PrefetchMethod::kNone);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(
      session->StepKnn(db_->domain().Center(), 0).status().IsInvalidArgument());
  EXPECT_TRUE(session
                  ->StepKnn(Vec3(std::numeric_limits<float>::quiet_NaN(), 0, 0),
                            3)
                  .status()
                  .IsInvalidArgument());
  // Degenerate steps must not have been recorded.
  EXPECT_EQ(session->NumSteps(), 0u);
}

TEST_F(KnnFixture, BackendLevelDegenerateInputs) {
  for (size_t i = 0; i < db_->NumBackends(); ++i) {
    const SpatialBackend& backend = db_->backend(i);
    storage::PoolSet pools =
        const_cast<SpatialBackend&>(backend).MakePoolSet(64);
    std::vector<KnnHit> hits{{7, 7.0}};
    // k == 0 is a valid (empty) index-level answer; the engine boundary is
    // what rejects it. The output vector must still be cleared.
    EXPECT_TRUE(
        backend.KnnQuery(Vec3(0, 0, 0), 0, &pools, &hits).ok())
        << backend.name();
    EXPECT_TRUE(hits.empty()) << backend.name();
    // Null pool set / non-finite points are errors everywhere.
    EXPECT_TRUE(backend.KnnQuery(Vec3(0, 0, 0), 1, nullptr, &hits)
                    .IsInvalidArgument())
        << backend.name();
    EXPECT_TRUE(
        backend
            .KnnQuery(Vec3(std::numeric_limits<float>::quiet_NaN(), 0, 0), 1,
                      &pools, &hits)
            .IsInvalidArgument())
        << backend.name();
  }
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
