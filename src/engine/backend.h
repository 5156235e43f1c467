// NeuroDB — SpatialBackend: the pluggable index interface of QueryEngine.
//
// A backend owns one or more simulated disks (PageStores), knows how to lay
// a dataset out on them (Build) and how to answer range queries through
// buffer pools with streaming visitor delivery and k-nearest-neighbour
// queries with deterministic (distance, id) ordering. Queries take a
// storage::PoolSet — one BufferPool per store of the backend (Stores()) —
// so multi-store backends such as the domain-sharded ShardedBackend fit the
// same interface as the single-store FLAT, paged R-tree and uniform grid,
// and join BackendChoice::kAll comparisons without facade changes.
//
// A backend is a read-only index over one base generation. It keeps no
// copy of the element set and no delta: the engine's LiveSet
// (engine/live_set.h) holds both, once. Mutation is layered over the
// index at read time — RangeQueryView/KnnQueryView merge the base answer
// (the BaseRangeQuery/BaseKnnQuery hooks) with a delta version:
//
//   * range: base results with dead ids filtered, plus the delta inserts
//     intersecting the box, under the global ascending-id insert order;
//   * kNN: the base is asked for k neighbours, re-asked with a doubled k
//     while fewer than k of its hits are live (DeltaIndex::MergeKnn), and
//     the accumulator is seeded from the delta side too, so the merged
//     frontier is exact under the (distance, id) order; every ask is
//     charged to the query's RangeStats, and RangeStats::knn_reasks counts
//     the asks after the first.
//
// The delta version is one of three: the one the caller pinned (the
// engine resolves a request's (epoch, delta) pair once and hands it to
// every backend the request runs on); the attached LiveSet's version at an
// epoch (RangeQueryAt/KnnQueryAt; kLatestEpoch is its newest); or none,
// for a standalone backend. Compact rebuilds every backend in place over
// the LiveSet's next base generation (Rebuild).

#ifndef NEURODB_ENGINE_BACKEND_H_
#define NEURODB_ENGINE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/delta_index.h"
#include "engine/live_set.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/knn.h"
#include "geom/vec3.h"
#include "geom/visitor.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/pool_set.h"

namespace neurodb {
namespace engine {

using geom::CollectingVisitor;
using geom::CountingVisitor;
using geom::ResultVisitor;

/// Index footprint report (SpatialBackend::Stats()).
struct BackendStats {
  /// Disk pages occupied by the backend's data + index structure, summed
  /// over every store of the backend.
  size_t index_pages = 0;
  /// Memory-resident metadata bytes (seed trees, neighbor lists, shard
  /// tables, ...).
  size_t metadata_bytes = 0;
  /// Real device I/O summed over every store of the backend. All zeros
  /// when the backend runs on in-memory stores; populated by
  /// storage::DiskPageStore.
  storage::IoStats io;
};

/// Per-query counters, normalized across backends — one row of the demo's
/// live statistics panel (paper Figure 3).
struct RangeStats {
  /// Disk pages fetched on the demand path.
  uint64_t pages_read = 0;
  /// Modeled query time in microseconds: `pool.ModeledMicros(cost)`,
  /// filled in by the engine.
  uint64_t time_us = 0;
  uint64_t results = 0;
  /// Candidate elements tested against the query box.
  uint64_t elements_scanned = 0;
  /// Tree backends: node fetches per level (leaf = index 0); else empty.
  std::vector<uint64_t> nodes_per_level;
  /// kNN over a delta: asks of the base after the first, made while fewer
  /// than k of its hits were live (DeltaIndex::MergeKnn).
  uint64_t knn_reasks = 0;
  /// This query's buffer-pool hits, misses and evictions: the tally every
  /// BufferPool::Fetch of the query charged, summed over shards. Exact
  /// however many readers share the pools.
  storage::PoolCounters pool;
};

/// Produces one PageStore per request — the hook QueryEngine uses to put a
/// backend's pages on disk. `name` is a stable per-store identifier (e.g.
/// "Grid" or "Sharded.shard3") that disk factories turn into a file name.
using StoreFactory =
    std::function<Result<std::unique_ptr<storage::PageStore>>(
        const std::string& name)>;

/// Abstract index backend. Build once (Rebuild at Compact), then answer
/// queries through a caller-supplied PoolSet (the pools determine cache
/// behaviour; each query's RangeStats::pool tally determines its modeled
/// time).
class SpatialBackend {
 public:
  SpatialBackend() = default;
  SpatialBackend(const SpatialBackend&) = delete;
  SpatialBackend& operator=(const SpatialBackend&) = delete;
  virtual ~SpatialBackend() = default;

  /// Short display name ("FLAT", "R-Tree"); also the registry key.
  virtual const char* name() const = 0;

  /// Lay `elements` out in this backend's page store(s) and build the
  /// index, in the caller's order (the packers break ties by input
  /// position). Called exactly once per backend instance.
  Status Build(const geom::ElementVec& elements);

  /// Tear the index down and build it again over `elements` — same
  /// PageStore objects, fresh pages: the Compact path. Every BufferPool
  /// over Stores() must be evicted before its next use (QueryEngine::Compact
  /// evicts its own pools; session pools re-fetch through the store-epoch
  /// check).
  Status Rebuild(const geom::ElementVec& elements);

  /// Resolve RangeQueryAt/KnnQueryAt epochs through `live` (the engine's
  /// LiveSet). Without one — the default — a standalone backend answers
  /// from its base alone.
  void AttachLiveSet(const LiveSet* live) { live_set_ = live; }

  /// Stream every element intersecting `box` to `visitor`, merged with the
  /// delta version `delta` (null: the base alone). Page I/O goes through
  /// `pools`, which must be a PoolSet over this backend's Stores().
  virtual Status RangeQueryView(const DeltaIndex* delta, const geom::Aabb& box,
                                storage::PoolSet* pools,
                                ResultVisitor& visitor,
                                RangeStats* stats = nullptr) const;

  /// Fill `hits` with the k nearest live elements of `point` by box
  /// distance, merged with `delta` (null: the base alone), ascending under
  /// the library-wide (distance, id) order (geom/knn.h) so independent
  /// backends return bit-identical answers. k == 0 yields an empty answer;
  /// k larger than the dataset yields every element. Non-finite points are
  /// InvalidArgument.
  virtual Status KnnQueryView(const DeltaIndex* delta, const geom::Vec3& point,
                              size_t k, storage::PoolSet* pools,
                              std::vector<geom::KnnHit>* hits,
                              RangeStats* stats = nullptr) const;

  /// RangeQueryView over the attached LiveSet's delta version at
  /// `read_epoch` (kLatestEpoch: its newest). OutOfRange when the epoch has
  /// been retired from the retention window. A standalone backend answers
  /// from its base at every epoch.
  Status RangeQueryAt(storage::Epoch read_epoch, const geom::Aabb& box,
                      storage::PoolSet* pools, ResultVisitor& visitor,
                      RangeStats* stats = nullptr) const;

  /// KnnQueryView as of `read_epoch`, exactly as RangeQueryAt.
  Status KnnQueryAt(storage::Epoch read_epoch, const geom::Vec3& point,
                    size_t k, storage::PoolSet* pools,
                    std::vector<geom::KnnHit>* hits,
                    RangeStats* stats = nullptr) const;

  /// RangeQueryAt / KnnQueryAt at kLatestEpoch.
  Status RangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                    ResultVisitor& visitor,
                    RangeStats* stats = nullptr) const {
    return RangeQueryAt(storage::kLatestEpoch, box, pools, visitor, stats);
  }
  Status KnnQuery(const geom::Vec3& point, size_t k, storage::PoolSet* pools,
                  std::vector<geom::KnnHit>* hits,
                  RangeStats* stats = nullptr) const {
    return KnnQueryAt(storage::kLatestEpoch, point, k, pools, hits, stats);
  }

  /// Index footprint.
  virtual BackendStats Stats() const = 0;

  bool built() const { return built_; }

  /// Replace this backend's page store(s) with ones made by `factory` —
  /// how a durable engine moves a backend onto disk-backed stores. Must be
  /// called before Build; the backend owns the returned stores. The base
  /// implementation swaps the single primary store; multi-store backends
  /// (ShardedBackend) override to attach one store per shard.
  virtual Status AttachStores(const StoreFactory& factory) {
    auto store = factory(name());
    NEURODB_RETURN_NOT_OK(store.status());
    owned_store_ = std::move(*store);
    store_ = owned_store_.get();
    return Status::OK();
  }

  /// Every simulated disk of this backend, in a fixed order — the stores a
  /// query PoolSet must be built over. Single-store backends return their
  /// one store; ShardedBackend returns one per shard.
  virtual std::vector<storage::PageStore*> Stores() { return {store_}; }

  /// Real device I/O summed over Stores() (zeros on in-memory stores).
  storage::IoStats IoTotals() const {
    storage::IoStats total;
    // Stores() is non-const only because callers build pools over it; the
    // io counters themselves are const reads.
    for (auto* s : const_cast<SpatialBackend*>(this)->Stores()) {
      total += s->io();
    }
    return total;
  }

  /// Build a PoolSet over Stores() — the pool family a query against this
  /// backend needs. `total_capacity_pages` is split across the stores.
  storage::PoolSet MakePoolSet(size_t total_capacity_pages,
                               SimClock* clock = nullptr,
                               storage::DiskCostModel cost =
                                   storage::DiskCostModel{}) {
    return storage::PoolSet(Stores(), total_capacity_pages, clock, cost);
  }

  /// The primary simulated disk (single-store backends; FLAT's crawl pages
  /// for SCOUT sessions). Multi-store backends keep this empty.
  storage::PageStore* store() { return store_; }
  const storage::PageStore& store() const { return *store_; }

 protected:
  /// Lay `elements` out and build the index; `elements` may be empty (the
  /// query hooks are then never called). Called once per Build, and once
  /// per Rebuild after ResetBase.
  virtual Status BuildBase(const geom::ElementVec& elements) = 0;

  /// Drop the built index and Reset() the page store(s) so BuildBase can
  /// run again over a new element set.
  virtual Status ResetBase() = 0;

  /// Answer a range query from the base index alone.
  virtual Status BaseRangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                                ResultVisitor& visitor,
                                RangeStats* stats) const = 0;

  /// Answer a kNN query from the base index alone.
  virtual Status BaseKnnQuery(const geom::Vec3& point, size_t k,
                              storage::PoolSet* pools,
                              std::vector<geom::KnnHit>* hits,
                              RangeStats* stats) const = 0;

  Status RequireBuilt(const char* op) const {
    if (!built_) {
      return Status::InvalidArgument(std::string(name()) + "::" + op +
                                     ": not built");
    }
    return Status::OK();
  }

  /// The primary store. Points at the default in-memory store unless
  /// AttachStores swapped in an owned (e.g. disk-backed) one.
  storage::PageStore* store_ = &memory_store_;

 private:
  /// The delta version `read_epoch` resolves to through the attached
  /// LiveSet (null when standalone).
  Result<std::shared_ptr<const DeltaIndex>> ResolveDelta(
      storage::Epoch read_epoch) const;

  storage::PageStore memory_store_;
  std::unique_ptr<storage::PageStore> owned_store_;
  const LiveSet* live_set_ = nullptr;
  bool built_ = false;
  bool base_empty_ = false;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_BACKEND_H_
