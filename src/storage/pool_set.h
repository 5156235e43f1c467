// NeuroDB — PoolSet: one BufferPool per PageStore of a (possibly
// multi-store) backend.
//
// Single-store backends (FLAT, R-tree, Grid) see a PoolSet of size one —
// pool(0) is the familiar BufferPool. ShardedBackend partitions its data
// across one PageStore per shard, so its queries need one pool per shard;
// the engine builds a PoolSet over SpatialBackend::Stores() wherever it
// used to build a single pool. The set's pools share one (optional)
// SimClock and cost model, and split the caller's total page budget evenly
// so a sharded backend does not get K times the cache of its peers.

#ifndef NEURODB_STORAGE_POOL_SET_H_
#define NEURODB_STORAGE_POOL_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_clock.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace neurodb {
namespace storage {

/// A fixed family of buffer pools, one per store, built once and queried
/// many times. Movable (the pools keep stable addresses), not copyable.
class PoolSet {
 public:
  /// One pool per entry of `stores`; each pool gets
  /// max(1, total_capacity_pages / stores.size()) pages. `clock` may be
  /// null (no time modelling) and must outlive the set.
  PoolSet(const std::vector<PageStore*>& stores, size_t total_capacity_pages,
          SimClock* clock = nullptr, DiskCostModel cost = DiskCostModel{});

  /// Non-owning single-pool view: multi-store backends delegate one shard's
  /// pool to an inner single-store backend through this. The borrowed pool
  /// must outlive the view.
  explicit PoolSet(BufferPool* borrowed);

  PoolSet(PoolSet&&) = default;
  PoolSet& operator=(PoolSet&&) = default;

  size_t size() const { return pools_.size(); }

  BufferPool* pool(size_t i = 0) const { return pools_[i]; }

  /// Drop every cached page in every pool (cold cache); returns the number
  /// of pages dropped.
  size_t EvictAll();

  /// Pages resident across every pool right now.
  size_t PagesCached() const;

  /// Demand hit/miss/eviction totals over every pool since construction.
  PoolCounters Counters() const;

 private:
  /// Queried pools, in store order. Owned pools also live in owned_;
  /// borrowed-view pools are someone else's.
  std::vector<BufferPool*> pools_;
  std::vector<std::unique_ptr<BufferPool>> owned_;
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_POOL_SET_H_
