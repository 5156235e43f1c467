// NeuroDB — SpatialBackend: the pluggable index interface of QueryEngine.
//
// A backend owns one or more simulated disks (PageStores), knows how to lay
// a dataset out on them (Build), how to answer range queries through buffer
// pools with streaming visitor delivery (RangeQuery), and how to answer
// k-nearest-neighbour queries with deterministic (distance, id) ordering
// (KnnQuery). Queries take a storage::PoolSet — one BufferPool per store of
// the backend (Stores()) — so multi-store backends such as the domain-
// sharded ShardedBackend fit the same interface as the single-store FLAT,
// paged R-tree and uniform grid, and join BackendChoice::kAll comparisons
// without facade changes.

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
  /// This query's buffer-pool hits, misses and evictions: the tally every
  /// BufferPool::Fetch of the query charged, summed over shards. Exact
  /// however many readers share the pools.
  storage::PoolCounters pool;
};

/// Abstract index backend. Build once, then answer queries through a
/// caller-supplied PoolSet (the pools determine cache behaviour; each
/// query's RangeStats::pool tally determines its modeled time).
/// Produces one PageStore per request — the hook QueryEngine uses to put a
/// backend's pages on disk. `name` is a stable per-store identifier (e.g.
/// "Grid" or "Sharded.shard3") that disk factories turn into a file name.
using StoreFactory =
    std::function<Result<std::unique_ptr<storage::PageStore>>(
        const std::string& name)>;

class SpatialBackend {
 public:
  SpatialBackend() = default;
  SpatialBackend(const SpatialBackend&) = delete;
  SpatialBackend& operator=(const SpatialBackend&) = delete;
  virtual ~SpatialBackend() = default;

  /// Short display name ("FLAT", "R-Tree"); also the registry key.
  virtual const char* name() const = 0;

  /// Lay `elements` out in this backend's page store(s) and build the
  /// index. Called exactly once per backend instance.
  virtual Status Build(const geom::ElementVec& elements) = 0;

  /// Stream every element intersecting `box` to `visitor`; page I/O goes
  /// through `pools`, which must be a PoolSet over this backend's Stores().
  virtual Status RangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                            ResultVisitor& visitor,
                            RangeStats* stats = nullptr) const = 0;

  /// Fill `hits` with the k nearest elements of `point` by box distance,
  /// ascending under the library-wide (distance, id) order (geom/knn.h) so
  /// independent backends return bit-identical answers. Page I/O goes
  /// through `pools`. k == 0 yields an empty answer; k larger than the
  /// dataset yields every element. Non-finite points are InvalidArgument.
  virtual Status KnnQuery(const geom::Vec3& point, size_t k,
                          storage::PoolSet* pools,
                          std::vector<geom::KnnHit>* hits,
                          RangeStats* stats = nullptr) const = 0;

  /// Index footprint.
  virtual BackendStats Stats() const = 0;

  // --- Mutation protocol (base+delta backends) -----------------------------
  //
  // The built-in backends derive from BaseDeltaBackend and support the full
  // protocol; a custom backend that leaves these defaulted is read-only, and
  // QueryEngine::ApplyUpdates rejects the whole batch up front (checked via
  // SupportsUpdates before anything applies) rather than diverging from the
  // mutable backends mid-apply. Liveness validation (id exists / does not)
  // happens at the engine boundary; backends apply what they are given.

  /// True when this backend implements Insert/Erase/Move/Compact. The
  /// engine refuses ApplyUpdates while any registered backend is
  /// read-only — a half-applied batch would break kAll parity forever.
  virtual bool SupportsUpdates() const { return false; }

  /// Add element `id` at `bounds` to this backend's live set.
  virtual Status Insert(geom::ElementId /*id*/, const geom::Aabb& /*bounds*/) {
    return Status::Unimplemented(std::string(name()) +
                                 ": backend does not support updates");
  }

  /// Remove live element `id`.
  virtual Status Erase(geom::ElementId /*id*/) {
    return Status::Unimplemented(std::string(name()) +
                                 ": backend does not support updates");
  }

  /// Relocate live element `id` to `bounds`.
  virtual Status Move(geom::ElementId /*id*/, const geom::Aabb& /*bounds*/) {
    return Status::Unimplemented(std::string(name()) +
                                 ": backend does not support updates");
  }

  /// Fold the accumulated delta back into a rebuilt immutable base. After a
  /// successful Compact, DeltaSize() is 0 and query answers are unchanged.
  /// The physical page layout is new: every BufferPool over this backend's
  /// Stores() must be evicted before its next use (QueryEngine::Compact
  /// handles its own pools; sessions opened before a compaction are stale).
  virtual Status Compact() { return Status::OK(); }

  /// Pending delta records (inserts + tombstones); 0 for read-only backends
  /// and right after Compact.
  virtual size_t DeltaSize() const { return 0; }

  // --- Snapshot protocol (MVCC-lite) ---------------------------------------
  //
  // Mutable backends retain the last few published delta versions so a
  // reader pinned at epoch E keeps seeing the E state while the writer
  // commits E+1 (ISSUE 7). The defaults make an immutable custom backend
  // trivially correct: with no mutations there is only one version, so the
  // epoch-pinned queries forward to the plain ones and publishing is a
  // no-op.

  /// Apply a whole update batch and publish the result as the snapshot at
  /// `epoch` — one immutable delta copy per backend per batch instead of
  /// one per operation. The default loops Insert/Erase/Move.
  virtual Status ApplyBatch(const std::vector<UpdateRequest>& updates,
                            storage::Epoch epoch) {
    (void)epoch;
    for (const auto& u : updates) {
      Status s;
      switch (u.kind) {
        case UpdateKind::kInsert:
          s = Insert(u.id, u.bounds);
          break;
        case UpdateKind::kErase:
          s = Erase(u.id);
          break;
        case UpdateKind::kMove:
          s = Move(u.id, u.bounds);
          break;
      }
      NEURODB_RETURN_NOT_OK(s);
    }
    return Status::OK();
  }

  /// Publish the current pending state as the immutable snapshot at
  /// `epoch`. ApplyBatch calls this itself; the engine also calls it after
  /// Compact so epoch E+1 resolves to the freshly compacted (empty-delta)
  /// version.
  virtual void PublishVersion(storage::Epoch /*epoch*/) {}

  /// Stream every element intersecting `box` as of read epoch
  /// `read_epoch` (kLatestEpoch = live pending state). OutOfRange when the
  /// epoch has been retired from the retention window.
  virtual Status RangeQueryAt(storage::Epoch /*read_epoch*/,
                              const geom::Aabb& box, storage::PoolSet* pools,
                              ResultVisitor& visitor,
                              RangeStats* stats = nullptr) const {
    return RangeQuery(box, pools, visitor, stats);
  }

  /// KnnQuery as of read epoch `read_epoch` (kLatestEpoch = live state).
  virtual Status KnnQueryAt(storage::Epoch /*read_epoch*/,
                            const geom::Vec3& point, size_t k,
                            storage::PoolSet* pools,
                            std::vector<geom::KnnHit>* hits,
                            RangeStats* stats = nullptr) const {
    return KnnQuery(point, k, pools, hits, stats);
  }

  /// How many published delta versions to retain (>= 1). No-op for
  /// immutable backends.
  virtual void SetVersionRetention(size_t /*versions*/) {}

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
  /// The primary store. Points at the default in-memory store unless
  /// AttachStores swapped in an owned (e.g. disk-backed) one.
  storage::PageStore* store_ = &memory_store_;

 private:
  storage::PageStore memory_store_;
  std::unique_ptr<storage::PageStore> owned_store_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_BACKEND_H_
