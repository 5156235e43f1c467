// Differential-testing harness runs: seeded randomized Range/Knn/Join
// workloads through FLAT, R-tree and Grid with brute-force ground truth
// (tests/diff_harness.h). The default run is sized for CI; the seeded
// "nightly" ctest registration (see CMakeLists.txt) scales it up through
// NEURODB_DIFF_QUERIES and rotates the seed daily at run time via
// NEURODB_DIFF_SEED_FROM_DATE (NEURODB_DIFF_SEED pins it explicitly).

#include "diff_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "neuro/circuit_generator.h"

namespace neurodb {
namespace testing {
namespace {

using geom::Aabb;
using geom::Vec3;

// The workload seed: fixed by default (deterministic CI), overridable via
// NEURODB_DIFF_SEED, or — for the nightly registration — derived from the
// current UTC date at run time (YYYYMMDD) so a cached build directory
// still rotates its coverage.
uint64_t DiffSeed() {
  if (std::getenv("NEURODB_DIFF_SEED_FROM_DATE") != nullptr) {
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    return static_cast<uint64_t>(utc.tm_year + 1900) * 10000 +
           static_cast<uint64_t>(utc.tm_mon + 1) * 100 +
           static_cast<uint64_t>(utc.tm_mday);
  }
  return EnvOr("NEURODB_DIFF_SEED", 20260730);
}

neuro::Circuit MakeCircuit(uint32_t neurons, uint64_t seed) {
  neuro::CircuitParams params;
  params.num_neurons = neurons;
  params.seed = seed;
  auto circuit = neuro::CircuitGenerator(params).Generate();
  EXPECT_TRUE(circuit.ok());
  return std::move(circuit).value();
}

class DiffHarnessFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    circuit_ = MakeCircuit(12, 7);
    engine::EngineOptions options;
    options.flat.elems_per_page = 64;
    options.grid.elems_per_page = 64;
    // The nightly registration sets NEURODB_DIFF_THREADS so the same
    // workload also exercises the worker pool + parallel shard fan-out.
    options.num_threads = std::max<uint64_t>(1, EnvOr("NEURODB_DIFF_THREADS", 1));
    db_ = std::make_unique<engine::QueryEngine>(options);
    ASSERT_TRUE(db_->LoadCircuit(circuit_).ok());
    elements_ = circuit_.FlattenSegments().Elements();
  }

  neuro::Circuit circuit_;
  std::unique_ptr<engine::QueryEngine> db_;
  geom::ElementVec elements_;
};

// The acceptance run: a seeded randomized Range/Knn workload, replayed
// through all three backends, zero divergences tolerated. Seed and size are
// env-overridable for the nightly registration.
TEST_F(DiffHarnessFixture, SeededRangeKnnWorkloadHasNoDivergence) {
  neuro::MixedWorkloadOptions options;
  options.knn_fraction = 0.35;
  options.join_fraction = 0.0;

  size_t queries = EnvOr("NEURODB_DIFF_QUERIES", 1000);
  uint64_t seed = DiffSeed();
  DiffOutcome outcome =
      RunDifferential(db_.get(), elements_, options, queries, seed);
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_EQ(outcome.queries_run, queries);
  EXPECT_GT(outcome.ranges, 0u);
  EXPECT_GT(outcome.knns, 0u);
}

// Walkthrough queries replay random-walk paths one Session::Step at a time
// and cross-check every step against the kAll range path and brute force
// (ROADMAP PR-2 follow-up: session replay folded into the harness).
TEST_F(DiffHarnessFixture, SeededWalkthroughWorkloadHasNoDivergence) {
  neuro::MixedWorkloadOptions options;
  options.knn_fraction = 0.25;
  options.walkthrough_fraction = 0.25;
  options.walk_steps = 5;

  DiffOutcome outcome = RunDifferential(db_.get(), elements_, options, 60,
                                        EnvOr("NEURODB_DIFF_SEED", 20260730));
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_GT(outcome.walkthroughs, 0u);
  EXPECT_GT(outcome.ranges, 0u);
}

// Delta-query parity (result-cache subsystem): a seeded workload of range
// queries through CachePolicy::kDelta (backend rotated per query) plus
// walkthroughs with deliberately overlapping boxes replayed through cached
// and cold sessions — every answer byte-identical to a cold full re-query.
// 1000 queries in CI; the nightly registration scales to 10000 via
// NEURODB_DELTA_QUERIES.
TEST_F(DiffHarnessFixture, DeltaCachedAnswersMatchColdReQueries) {
  neuro::MixedWorkloadOptions options;
  options.knn_fraction = 0.0;
  options.walkthrough_fraction = 0.05;
  options.walk_steps = 5;
  // Steps much shorter than the box side: ~80% volume overlap between
  // consecutive walkthrough boxes, the result cache's home turf.
  options.walk_step = 6.0f;
  options.walk_side = 30.0f;

  size_t queries = EnvOr("NEURODB_DELTA_QUERIES", 1000);
  DiffOutcome outcome =
      RunDeltaParity(db_.get(), elements_, options, queries, DiffSeed());
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_EQ(outcome.queries_run, queries);
  EXPECT_GT(outcome.ranges, 0u);
  EXPECT_GT(outcome.walkthroughs, 0u);
  // The delta path must actually have served cache coverage, or the run
  // proved nothing about the planner.
  ASSERT_NE(db_->result_cache(), nullptr);
  EXPECT_GT(db_->result_cache()->stats().hits, 0u);
}

// Join queries cross-check TOUCH against the independent plane-sweep
// algorithm at randomized epsilons.
TEST_F(DiffHarnessFixture, SeededJoinWorkloadHasNoDivergence) {
  neuro::MixedWorkloadOptions options;
  options.join_fraction = 1.0;

  DiffOutcome outcome = RunDifferential(db_.get(), elements_, options, 4,
                                        EnvOr("NEURODB_DIFF_SEED", 20260730));
  EXPECT_FALSE(outcome.diverged) << outcome.Summary();
  EXPECT_EQ(outcome.joins, 4u);
}

// The sub-seed printed on divergence regenerates exactly the failing query:
// workload[i] must be bit-identical to MixedWorkloadQuery(seed + i).
TEST_F(DiffHarnessFixture, SubSeedRegeneratesExactQuery) {
  neuro::MixedWorkloadOptions options;
  options.knn_fraction = 0.4;
  options.join_fraction = 0.1;
  auto workload =
      neuro::MixedWorkload(db_->domain(), elements_, options, 50, 99);
  ASSERT_EQ(workload.size(), 50u);
  for (size_t i = 0; i < workload.size(); ++i) {
    neuro::WorkloadQuery again = neuro::MixedWorkloadQuery(
        db_->domain(), elements_, options, workload[i].sub_seed);
    EXPECT_EQ(workload[i].sub_seed, 99u + i);
    EXPECT_EQ(static_cast<int>(again.kind),
              static_cast<int>(workload[i].kind));
    EXPECT_EQ(again.box, workload[i].box);
    EXPECT_EQ(again.point.x, workload[i].point.x);
    EXPECT_EQ(again.point.y, workload[i].point.y);
    EXPECT_EQ(again.point.z, workload[i].point.z);
    EXPECT_EQ(again.k, workload[i].k);
    EXPECT_EQ(again.epsilon, workload[i].epsilon);
  }
}

// Index-variant rotation: the same seeded Range/Knn workload, zero
// divergences tolerated, through engines whose sharded backend is configured
// with Hilbert-assigned shards, hosting inner R-trees in one variant and
// grids in the other, over skewed element clouds (Gaussian clusters /
// power-law density) instead of the fixture's circuit. FLAT is always part
// of the kAll parity set, so every variant is checked byte-identical to
// the FLAT ground truth as well as brute force. CI runs 1000 queries per
// variant; the nightly registration scales to 10000 and rotates the seed.
struct IndexVariant {
  const char* name;
  engine::EngineOptions options;
};

std::vector<IndexVariant> IndexVariants() {
  std::vector<IndexVariant> out;
  {
    IndexVariant v{"ShardedHilbertRTree", {}};
    v.options.sharded.assignment = engine::ShardAssignment::kHilbert;
    v.options.sharded.inner_index = engine::ShardIndexKind::kRTree;
    out.push_back(v);
  }
  {
    IndexVariant v{"ShardedHilbertGrid", {}};
    v.options.sharded.assignment = engine::ShardAssignment::kHilbert;
    v.options.sharded.num_shards = 6;
    out.push_back(v);
  }
  return out;
}

class IndexVariantDiffTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IndexVariantDiffTest, BuildVariantWorkloadHasNoDivergence) {
  const IndexVariant variant = IndexVariants()[GetParam()];
  engine::EngineOptions options = variant.options;
  options.flat.elems_per_page = 64;
  options.grid.elems_per_page = 64;
  options.num_threads =
      std::max<uint64_t>(1, EnvOr("NEURODB_DIFF_THREADS", 1));
  engine::QueryEngine db(options);

  // Skewed clouds, not the circuit: the distributions Hilbert-assigned
  // shards exist for, alternated across variants.
  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  geom::ElementVec elements =
      GetParam() % 2 == 0
          ? neuro::ClusteredElements(4000, domain, /*clusters=*/16,
                                     /*sigma=*/5.0f, /*elem_side=*/1.5f,
                                     /*seed=*/31)
          : neuro::PowerLawElements(4000, domain, /*clusters=*/24,
                                    /*alpha=*/1.1, /*sigma_max=*/30.0f,
                                    /*elem_side=*/1.5f, /*seed=*/32);
  ASSERT_TRUE(db.LoadElements(elements).ok());

  neuro::MixedWorkloadOptions workload;
  workload.knn_fraction = 0.35;
  workload.join_fraction = 0.0;

  size_t queries = EnvOr("NEURODB_DIFF_QUERIES", 1000);
  DiffOutcome outcome = RunDifferential(&db, elements, workload, queries,
                                        DiffSeed() + 100 * (GetParam() + 1));
  EXPECT_FALSE(outcome.diverged)
      << variant.name << ": " << outcome.Summary();
  EXPECT_EQ(outcome.queries_run, queries);
  EXPECT_GT(outcome.ranges, 0u);
  EXPECT_GT(outcome.knns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, IndexVariantDiffTest,
                         ::testing::Range<size_t>(0, IndexVariants().size()),
                         [](const auto& info) {
                           return std::string(
                               IndexVariants()[info.param].name);
                         });

// A backend that silently drops the first streamed match of every range
// query — the class of bug the harness exists to catch.
class LossyBackend : public engine::GridBackend {
 public:
  const char* name() const override { return "Lossy"; }

  // Engine queries flow through the pinned-delta entry point — inject
  // there.
  Status RangeQueryView(const engine::DeltaIndex* delta, const Aabb& box,
                        storage::PoolSet* pools, geom::ResultVisitor& visitor,
                        engine::RangeStats* stats) const override {
    struct DropFirst : geom::ResultVisitor {
      geom::ResultVisitor* inner = nullptr;
      bool dropped = false;
      void Visit(geom::ElementId id, const Aabb& bounds) override {
        if (!dropped) {
          dropped = true;
          return;
        }
        inner->Visit(id, bounds);
      }
    };
    DropFirst drop;
    drop.inner = &visitor;
    return GridBackend::RangeQueryView(delta, box, pools, drop, stats);
  }
};

// The harness detects an injected divergence and hands back a sub-seed
// that regenerates a diverging query on its own.
TEST(DiffHarnessDetectionTest, CatchesLossyBackendWithMinimalRepro) {
  neuro::Circuit circuit = MakeCircuit(8, 21);
  engine::EngineOptions options;
  options.flat.elems_per_page = 64;
  engine::QueryEngine db(options);
  ASSERT_TRUE(db.RegisterBackend(std::make_unique<LossyBackend>()).ok());
  ASSERT_TRUE(db.LoadCircuit(circuit).ok());
  geom::ElementVec elements = circuit.FlattenSegments().Elements();

  neuro::MixedWorkloadOptions workload;
  workload.knn_fraction = 0.0;
  workload.data_centered_fraction = 1.0;  // guaranteed non-empty results
  DiffOutcome outcome = RunDifferential(&db, elements, workload, 50, 5);
  ASSERT_TRUE(outcome.diverged) << outcome.Summary();

  // Minimal repro: regenerate just the failing query from its sub-seed and
  // watch it diverge again, in isolation.
  neuro::WorkloadQuery repro = neuro::MixedWorkloadQuery(
      db.domain(), elements, workload, outcome.failing_seed);
  ASSERT_EQ(static_cast<int>(repro.kind),
            static_cast<int>(neuro::QueryKind::kRange));
  engine::RangeRequest request;
  request.box = repro.box;
  request.backend = engine::BackendChoice::kAll;
  auto report = db.Execute(request);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->results_match);
}

}  // namespace
}  // namespace testing
}  // namespace neurodb
