// Tests of the domain-sharded backend: deterministic longest-axis
// splitting, ground-truth parity on queries that straddle shard
// boundaries, the single-shard degenerate case, k beyond the per-shard
// population (the cross-shard merge must refill from other shards), pool
// set validation, and serial-vs-parallel shard fan-out equivalence.

#include "engine/sharded_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "diff_harness.h"
#include "exec/thread_pool.h"
#include "neuro/workload.h"

namespace neurodb {
namespace engine {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::KnnHit;
using geom::Vec3;

geom::ElementVec MakeCloud(size_t n, uint64_t seed) {
  Aabb domain(Vec3(0, 0, 0), Vec3(200, 120, 80));
  return neuro::UniformSegments(n, domain, 6.0f, 2.0f, 0.5f, seed).Elements();
}

std::vector<ElementId> SortedIds(const CollectingVisitor& visitor) {
  std::vector<ElementId> ids = visitor.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ShardedBackendTest, SplitsAreExhaustiveAndNonEmpty) {
  geom::ElementVec elements = MakeCloud(500, 3);
  ShardedOptions options;
  options.num_shards = 6;
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());

  ASSERT_EQ(backend.NumShards(), 6u);
  size_t total = 0;
  for (size_t s = 0; s < backend.NumShards(); ++s) {
    EXPECT_GT(backend.ShardPopulation(s), 0u);
    EXPECT_TRUE(backend.shard_bounds(s).IsValid());
    total += backend.ShardPopulation(s);
  }
  EXPECT_EQ(total, elements.size());
  // Near-proportional split: no shard hoards the data.
  for (size_t s = 0; s < backend.NumShards(); ++s) {
    EXPECT_LT(backend.ShardPopulation(s), elements.size() / 2);
  }
}

TEST(ShardedBackendTest, CostBasedSelectionSkipsZeroPopulationShards) {
  // An empty build produces one zero-population shard whose bounds never
  // became valid — selection must skip it by population, queries must
  // still work and kNN must return nothing.
  ShardedBackend empty_backend;
  ASSERT_TRUE(empty_backend.Build(geom::ElementVec{}).ok());
  ASSERT_EQ(empty_backend.NumShards(), 1u);
  EXPECT_EQ(empty_backend.ShardPopulation(0), 0u);
  EXPECT_TRUE(
      empty_backend.SelectShards(Aabb(Vec3(0, 0, 0), Vec3(500, 500, 500)))
          .empty());

  storage::PoolSet pools = empty_backend.MakePoolSet(64);
  CollectingVisitor out;
  ASSERT_TRUE(empty_backend
                  .RangeQuery(Aabb(Vec3(0, 0, 0), Vec3(500, 500, 500)),
                              &pools, out)
                  .ok());
  EXPECT_EQ(out.size(), 0u);
  std::vector<KnnHit> hits;
  ASSERT_TRUE(empty_backend.KnnQuery(Vec3(1, 1, 1), 5, &pools, &hits).ok());
  EXPECT_TRUE(hits.empty());

  // On a populated backend the selection is driven by bounds intersection
  // as before: a query outside every shard selects nothing, a domain-wide
  // query selects only populated shards.
  geom::ElementVec elements = MakeCloud(400, 11);
  ShardedOptions options;
  options.num_shards = 4;
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());
  EXPECT_TRUE(
      backend.SelectShards(Aabb(Vec3(900, 900, 900), Vec3(950, 950, 950)))
          .empty());
  std::vector<size_t> all =
      backend.SelectShards(Aabb(Vec3(-10, -10, -10), Vec3(500, 500, 500)));
  EXPECT_EQ(all.size(), backend.NumShards());
  for (size_t s : all) EXPECT_GT(backend.ShardPopulation(s), 0u);
}

TEST(ShardedBackendTest, FewerElementsThanShardsDegradesGracefully) {
  geom::ElementVec elements = MakeCloud(3, 5);
  ShardedOptions options;
  options.num_shards = 8;
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());
  EXPECT_EQ(backend.NumShards(), 3u);

  storage::PoolSet pools = backend.MakePoolSet(64);
  std::vector<KnnHit> hits;
  ASSERT_TRUE(backend.KnnQuery(Vec3(0, 0, 0), 10, &pools, &hits).ok());
  EXPECT_EQ(hits, geom::BruteForceKnn(elements, Vec3(0, 0, 0), 10));
}

TEST(ShardedBackendTest, RangeParityAcrossShardBoundaries) {
  geom::ElementVec elements = MakeCloud(3000, 11);
  ShardedOptions options;
  options.num_shards = 5;  // odd count → uneven recursive cuts
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());

  // Boxes centered on data (guaranteed hits, many near cut planes) plus
  // domain-spanning slabs that cross every shard.
  auto queries = neuro::DataCenteredQueries(elements, 35.0f, 12, 17);
  queries.push_back(Aabb(Vec3(0, 0, 0), Vec3(200, 120, 80)));
  queries.push_back(Aabb(Vec3(95, 0, 0), Vec3(105, 120, 80)));
  queries.push_back(Aabb(Vec3(-50, -50, -50), Vec3(-1, -1, -1)));  // empty

  for (const Aabb& box : queries) {
    storage::PoolSet pools = backend.MakePoolSet(4096);
    CollectingVisitor out;
    RangeStats stats;
    ASSERT_TRUE(backend.RangeQuery(box, &pools, out, &stats).ok());
    EXPECT_EQ(SortedIds(out),
              ::neurodb::testing::BruteForceRangeIds(elements, box))
        << "box " << box;
    EXPECT_EQ(stats.results, out.size());
  }
}

TEST(ShardedBackendTest, KnnParityIncludingKBeyondShardPopulation) {
  geom::ElementVec elements = MakeCloud(400, 13);
  ShardedOptions options;
  options.num_shards = 8;  // ~50 elements per shard
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());

  size_t max_shard = 0;
  for (size_t s = 0; s < backend.NumShards(); ++s) {
    max_shard = std::max(max_shard, backend.ShardPopulation(s));
  }

  std::vector<Vec3> points = {Vec3(100, 60, 40), Vec3(0, 0, 0),
                              Vec3(500, 500, 500), Vec3(-40, 60, 10)};
  // k values below, at and far beyond the largest shard population: the
  // best-first shard merge must keep refilling from farther shards.
  for (size_t k : {size_t{1}, size_t{16}, max_shard + 10, elements.size() + 5}) {
    for (const Vec3& p : points) {
      storage::PoolSet pools = backend.MakePoolSet(4096);
      std::vector<KnnHit> hits;
      ASSERT_TRUE(backend.KnnQuery(p, k, &pools, &hits).ok());
      EXPECT_EQ(hits, geom::BruteForceKnn(elements, p, k))
          << "k=" << k << " at (" << p.x << ", " << p.y << ", " << p.z << ")";
    }
  }
}

TEST(ShardedBackendTest, SingleShardDegenerateCaseMatchesGroundTruth) {
  geom::ElementVec elements = MakeCloud(600, 29);
  ShardedOptions options;
  options.num_shards = 1;
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());
  ASSERT_EQ(backend.NumShards(), 1u);

  Aabb box = Aabb::Cube(Vec3(100, 60, 40), 60.0f);
  storage::PoolSet pools = backend.MakePoolSet(4096);
  CollectingVisitor out;
  ASSERT_TRUE(backend.RangeQuery(box, &pools, out, nullptr).ok());
  EXPECT_EQ(SortedIds(out),
            ::neurodb::testing::BruteForceRangeIds(elements, box));

  std::vector<KnnHit> hits;
  ASSERT_TRUE(backend.KnnQuery(Vec3(100, 60, 40), 12, &pools, &hits).ok());
  EXPECT_EQ(hits, geom::BruteForceKnn(elements, Vec3(100, 60, 40), 12));
}

TEST(ShardedBackendTest, ParallelShardFanOutMatchesSerial) {
  geom::ElementVec elements = MakeCloud(2000, 37);
  ShardedOptions options;
  options.num_shards = 4;

  ShardedBackend serial(options);
  ShardedBackend parallel(options);
  ASSERT_TRUE(serial.Build(elements).ok());
  ASSERT_TRUE(parallel.Build(elements).ok());
  exec::ThreadPool pool(4);
  parallel.set_thread_pool(&pool);

  auto queries = neuro::DataCenteredQueries(elements, 45.0f, 10, 41);
  for (const Aabb& box : queries) {
    storage::PoolSet serial_pools = serial.MakePoolSet(4096);
    storage::PoolSet parallel_pools = parallel.MakePoolSet(4096);
    CollectingVisitor serial_out, parallel_out;
    RangeStats serial_stats, parallel_stats;
    ASSERT_TRUE(
        serial.RangeQuery(box, &serial_pools, serial_out, &serial_stats).ok());
    ASSERT_TRUE(parallel
                    .RangeQuery(box, &parallel_pools, parallel_out,
                                &parallel_stats)
                    .ok());
    // Bit-identical, including the visit order (shard-order replay).
    EXPECT_EQ(serial_out.Ids(), parallel_out.Ids());
    EXPECT_EQ(serial_stats.pages_read, parallel_stats.pages_read);
    EXPECT_EQ(serial_stats.elements_scanned, parallel_stats.elements_scanned);
    EXPECT_EQ(serial_stats.results, parallel_stats.results);
  }
}

TEST(ShardedBackendTest, RejectsMismatchedPoolSets) {
  geom::ElementVec elements = MakeCloud(200, 43);
  ShardedOptions options;
  options.num_shards = 4;
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());

  // A single-pool set does not cover four shard stores.
  GridBackend other;
  ASSERT_TRUE(other.Build(elements).ok());
  storage::PoolSet wrong = other.MakePoolSet(64);
  CollectingVisitor out;
  EXPECT_TRUE(backend.RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 10), &wrong, out)
                  .IsInvalidArgument());
  std::vector<KnnHit> hits;
  EXPECT_TRUE(
      backend.KnnQuery(Vec3(0, 0, 0), 3, &wrong, &hits).IsInvalidArgument());
  EXPECT_TRUE(backend.RangeQuery(Aabb::Cube(Vec3(0, 0, 0), 10), nullptr, out)
                  .IsInvalidArgument());
}

TEST(ShardedBackendTest, EveryShardServesAWholeDomainRange) {
  geom::ElementVec elements = MakeCloud(1000, 47);
  ShardedOptions options;
  options.num_shards = 4;
  ShardedBackend backend(options);
  ASSERT_TRUE(backend.Build(elements).ok());
  EXPECT_EQ(backend.Stores().size(), 4u);

  storage::PoolSet pools = backend.MakePoolSet(4096);
  CollectingVisitor out;
  Aabb everything(Vec3(-1000, -1000, -1000), Vec3(1000, 1000, 1000));
  RangeStats range;
  ASSERT_TRUE(backend.RangeQuery(everything, &pools, out, &range).ok());
  EXPECT_EQ(out.size(), elements.size());

  // Every shard read pages through its own pool, and the query's tally
  // sums the shards' pools.
  ASSERT_EQ(pools.size(), backend.NumShards());
  uint64_t misses = 0;
  for (size_t s = 0; s < backend.NumShards(); ++s) {
    const uint64_t shard_misses = pools.pool(s)->Counters().misses;
    EXPECT_GT(shard_misses, 0u) << "shard " << s;
    misses += shard_misses;
  }
  EXPECT_EQ(range.pool.misses, misses);

  BackendStats stats = backend.Stats();
  EXPECT_GT(stats.index_pages, 0u);
  EXPECT_GT(stats.metadata_bytes, 0u);
}

}  // namespace
}  // namespace engine
}  // namespace neurodb
