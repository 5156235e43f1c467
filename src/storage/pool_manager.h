// NeuroDB — PoolManager: named, persistent buffer-pool families.
//
// The engine used to scatter pool lifetime logic across QueryEngine
// (MakePools for cold queries, warm_pools_ for the persistent warm path,
// fresh pool vectors per ExecuteBatch lane). PoolManager centralizes that:
// it owns named PoolSets — one per backend, each a family of BufferPools
// over the backend's PageStores — so
//
//   * the engine's warm path is a long-lived manager whose sets (including
//     the sharded backend's per-shard pools) survive across Execute and
//     ExecuteBatch calls and serve concurrent readers (each pool latches
//     itself);
//   * a cold query or a parallel batch lane is a short-lived local manager
//     with the same interface — per-lane PoolManager handles replace the
//     hand-rolled per-lane pool vectors;
//   * hit/miss/eviction statistics aggregate across every pool the manager
//     owns (PoolManagerStats), which is what the engine's pool gauges and
//     the cache benchmarks read.
//
// Modeled time is not kept here: each query tallies its own fetches
// (BufferPool::Fetch) and the engine prices the tally with its cost model.

#ifndef NEURODB_STORAGE_POOL_MANAGER_H_
#define NEURODB_STORAGE_POOL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/page_store.h"
#include "storage/pool_set.h"

namespace neurodb {
namespace storage {

/// Aggregate view over every pool set a manager owns.
struct PoolManagerStats {
  /// Named sets currently owned.
  size_t pool_sets = 0;
  /// Buffer pools across all sets (a multi-store set holds several).
  size_t pools = 0;
  /// Pages resident across all pools right now.
  uint64_t pages_cached = 0;
  /// Demand hits and misses summed over every pool.
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Pages dropped by capacity eviction plus explicit Evict/EvictAll calls.
  uint64_t evictions = 0;
  /// Pool latch acquisitions that found the latch held (contention).
  uint64_t latch_waits = 0;
  /// GetOrCreate lifecycle counters: sets built vs. handed back.
  uint64_t sets_created = 0;
  uint64_t sets_reused = 0;
};

/// Owns named PoolSets. GetOrCreate and Remove change the set map and are
/// setup-time calls; Evict, EvictAll, Stats and queries through the sets
/// may run concurrently.
class PoolManager {
 public:
  /// `default_pool_pages` is the per-set page budget used when GetOrCreate
  /// is called without an explicit budget; it is split across a multi-store
  /// set's pools (PoolSet semantics).
  explicit PoolManager(size_t default_pool_pages);

  PoolManager(const PoolManager&) = delete;
  PoolManager& operator=(const PoolManager&) = delete;

  /// The named set, built over `stores` on first use (`pages` == 0 means
  /// the manager default). Later calls return the existing set regardless
  /// of the arguments — the name is the identity.
  PoolSet* GetOrCreate(const std::string& name,
                       const std::vector<PageStore*>& stores,
                       size_t pages = 0);

  /// The named set, or nullptr.
  PoolSet* Find(const std::string& name);

  /// Drop every page of the named set (the set itself survives). Returns
  /// false if the name is unknown.
  bool Evict(const std::string& name);

  /// Drop every page of every set.
  void EvictAll();

  /// Destroy the named set entirely, retiring its hit/miss/eviction
  /// history into the manager-level counters (Stats() never decreases
  /// across a Remove). Returns false if unknown.
  bool Remove(const std::string& name);

  size_t NumSets() const { return sets_.size(); }

  size_t default_pool_pages() const { return default_pool_pages_; }

  PoolManagerStats Stats() const;

 private:
  size_t default_pool_pages_;
  /// std::map keeps iteration deterministic (stats, EvictAll order).
  std::map<std::string, std::unique_ptr<PoolSet>> sets_;
  uint64_t sets_created_ = 0;
  uint64_t sets_reused_ = 0;
  /// Pages dropped by Evict/EvictAll (atomic: concurrent serial batches
  /// evict for their kCold entries while Stats samples).
  std::atomic<uint64_t> explicit_evictions_{0};
  /// History of Remove()d sets, folded into Stats().
  BufferPoolCounters retired_;
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_POOL_MANAGER_H_
