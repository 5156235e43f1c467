// NeuroDB — ShardedBackend: the circuit domain partitioned across several
// PageStores, one inner index per shard.
//
// This is the first scaling backend: instead of one simulated disk holding
// the whole circuit, the element set is split into K spatial shards by
// recursive longest-axis median cuts (deterministic: ties broken by element
// id), and every shard gets its *own* PageStore with its own inner index
// built over just that shard's elements. Queries touch only the shards
// whose bounds intersect the request:
//
//   * RangeQuery fans the intersecting shards out across an exec::ThreadPool
//     when one is attached (per-shard buffer pools, results buffered per
//     shard and replayed in shard order, statistics merged in shard order —
//     so a parallel run is bit-identical to a serial one);
//   * KnnQuery walks the shard frontier best-first by shard distance,
//     merging per-shard answers under the global (distance, id) order and
//     stopping once no unvisited shard can still beat the k-th hit.
//
// The shards are base-only inner backends (a GridBackend or
// PagedRTreeBackend per ShardedOptions::inner_index): the engine's one
// delta is merged over the whole fan-out by the inherited
// RangeQueryView/KnnQueryView, so an update never touches a shard and
// shard bounds and populations change only when the base does. Rebuild
// (Compact) re-splits the next base generation into the same number of
// shards and rebuilds each in place — same PageStore objects, fresh pages
// — so the per-shard pools stay valid; a shard may be empty after a
// shrinking compact.
//
// Because every base element lives in exactly one shard, the merged
// answers are exact, which lets the backend join BackendChoice::kAll —
// four-way parity in the differential harness — for free.

#ifndef NEURODB_ENGINE_SHARDED_BACKEND_H_
#define NEURODB_ENGINE_SHARDED_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/backend.h"
#include "engine/grid_backend.h"
#include "engine/rtree_backend.h"
#include "exec/thread_pool.h"

namespace neurodb {
namespace engine {

/// Inner index hosted by each shard.
enum class ShardIndexKind {
  /// Uniform-grid inner index (the historical default; flat circuits).
  kGrid,
  /// Paged R-tree inner index (deep/skewed circuits, where the grid's
  /// uniform cells overfetch dense clusters).
  kRTree,
};

/// How elements are assigned to shards at build/compact time.
enum class ShardAssignment {
  /// Recursive longest-axis median cuts (deterministic, id tiebreak).
  kMedian,
  /// Contiguous equal cuts of the Hilbert-sorted element centers: shards
  /// follow the space-filling curve, so they stay compact under skew where
  /// median cuts produce long thin slabs.
  kHilbert,
};

/// Sharding configuration.
struct ShardedOptions {
  /// Spatial shards to cut the domain into (clamped to the element count
  /// at build time so no shard is empty).
  size_t num_shards = 4;
  /// Which index each shard hosts.
  ShardIndexKind inner_index = ShardIndexKind::kGrid;
  /// Inner grid configuration (used when inner_index == kGrid; R-tree
  /// shards use the default RTreeOptions).
  GridOptions inner;
  /// Shard-assignment key.
  ShardAssignment assignment = ShardAssignment::kMedian;

  Status Validate() const;
};

/// Domain-sharded backend: K shards, each a base-only inner backend (grid
/// or paged R-tree) over its own PageStore. Stores() exposes one store per
/// shard, so the engine's PoolSets carry one BufferPool per shard.
class ShardedBackend : public SpatialBackend {
 public:
  explicit ShardedBackend(ShardedOptions options = ShardedOptions())
      : options_(options) {}

  const char* name() const override { return "Sharded"; }

  /// Attach a worker pool for intra-query shard fan-out; null (the
  /// default) keeps shard execution serial. Called by the engine when
  /// EngineOptions::num_threads > 1; the pool must outlive the backend's
  /// queries. Fan-out automatically degrades to the serial loop when the
  /// query itself already runs on a pool worker (ExecuteBatch lanes).
  void set_thread_pool(exec::ThreadPool* pool) { thread_pool_ = pool; }

  BackendStats Stats() const override;

  /// Stash the factory; each shard gets its own store ("Sharded.shard<i>")
  /// when the first build creates it. Must be called before Build.
  Status AttachStores(const StoreFactory& factory) override {
    store_factory_ = factory;
    return Status::OK();
  }

  std::vector<storage::PageStore*> Stores() override;

  size_t NumShards() const { return shards_.size(); }
  /// Bounding box of shard `i`'s base elements (empty when it has none).
  /// Cuts go through element centers; boxes extend beyond them.
  const geom::Aabb& shard_bounds(size_t i) const { return shard_bounds_[i]; }
  const SpatialBackend& shard(size_t i) const { return *shards_[i]; }
  /// Base elements in shard `i` — the population the shard selection
  /// prunes by (zero-population shards are skipped even when their bounds
  /// intersect a query).
  size_t ShardPopulation(size_t i) const { return shard_sizes_[i]; }

  /// Shards a range query over `box` executes on: bounds must intersect
  /// AND the population must be non-zero. Exposed for tests.
  std::vector<size_t> SelectShards(const geom::Aabb& box) const;

 protected:
  /// The first build splits `elements` into min(num_shards, |elements|)
  /// shards (one empty shard for an empty set) and builds one inner
  /// backend per shard; a rebuild re-splits into the existing shards.
  Status BuildBase(const geom::ElementVec& elements) override;
  /// Nothing to drop: each shard resets itself in its own Rebuild.
  Status ResetBase() override { return Status::OK(); }
  Status BaseRangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                        ResultVisitor& visitor,
                        RangeStats* stats) const override;
  Status BaseKnnQuery(const geom::Vec3& point, size_t k,
                      storage::PoolSet* pools,
                      std::vector<geom::KnnHit>* hits,
                      RangeStats* stats) const override;

 private:
  /// One inner backend of the configured kind.
  std::unique_ptr<SpatialBackend> MakeInner() const;

  ShardedOptions options_;
  exec::ThreadPool* thread_pool_ = nullptr;
  StoreFactory store_factory_;

  std::vector<std::unique_ptr<SpatialBackend>> shards_;
  std::vector<geom::Aabb> shard_bounds_;
  std::vector<size_t> shard_sizes_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_SHARDED_BACKEND_H_
