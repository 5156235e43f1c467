// NeuroDB — BufferPool: LRU page cache with prefetch accounting and a
// simulated time model.
//
// A demand fetch charges its hit or miss — and any eviction it causes — to
// the caller's tally (PoolCounters), and, when a SimClock is attached,
// DiskCostModel::page_read_micros / page_hit_micros to that clock.
// Prefetches load pages without charging demand time (the caller — e.g.
// the SCOUT walkthrough session — accounts for prefetch time out of the
// user's think time). The pool tracks how many prefetched pages were later
// used, reproducing the demo's "prefetched total / correctly prefetched /
// additionally retrieved" panel (paper Figure 6).
//
// Thread safety: one latch guards the LRU list and its map, the prefetch
// set and the counters, so any number of readers may share a pool. Page
// memory lives in the PageStore; the latch guards only this bookkeeping and
// is never held across a store read.

#ifndef NEURODB_STORAGE_BUFFER_POOL_H_
#define NEURODB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace neurodb {
namespace storage {

/// Everything one BufferPool counted since construction: the demand-path
/// PoolCounters every tally also receives, plus the prefetch bookkeeping
/// and latch contention.
struct BufferPoolCounters : PoolCounters {
  /// Pages Prefetch loaded, and those a later demand Fetch then used.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_used = 0;
  /// Prefetch calls for a page already cached (no-ops).
  uint64_t prefetch_redundant = 0;
  /// Prefetched pages evicted before any demand Fetch used them.
  uint64_t prefetch_evicted_unused = 0;
  /// Latch acquisitions that found the latch held by another thread.
  uint64_t latch_waits = 0;
};

/// LRU buffer pool over a PageStore.
class BufferPool {
 public:
  /// `capacity_pages` must be >= 1. `clock` may be null (no time modelling).
  BufferPool(PageStore* store, size_t capacity_pages, SimClock* clock = nullptr,
             DiskCostModel cost = DiskCostModel{});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Demand-fetch a page. On miss: reads from the store, charges
  /// `cost.page_read_micros` to the clock, possibly evicts the LRU page.
  /// On hit: charges `cost.page_hit_micros`. The hit or miss, and every
  /// eviction it causes, is also added to `tally` (may be null).
  Result<const Page*> Fetch(PageId id, PoolCounters* tally = nullptr);

  /// Load a page into the pool without charging the demand clock. Marks it
  /// as prefetched; a later demand Fetch of the page counts as
  /// `prefetch_used`. Prefetching an already cached page is a no-op
  /// (counted as `prefetch_redundant`). Evictions it causes go to `tally`.
  Status Prefetch(PageId id, PoolCounters* tally = nullptr);

  /// True if the page is currently cached.
  bool Contains(PageId id) const;

  /// The page if (and only if) it is currently cached, else nullptr. Does
  /// not touch the LRU order, the counters or the clock — the think-time
  /// result-prefetch path evaluates predicted queries over already-resident
  /// pages without perturbing the demand model.
  const Page* Peek(PageId id);

  /// Drop every cached page (cold cache); prefetch markers are cleared
  /// too. Returns the number of pages dropped.
  size_t EvictAll();

  /// The store epoch this pool's cached pages belong to. Fetch/Prefetch/
  /// Peek evict everything and re-sync when the store's epoch has moved
  /// (a Reset rebuilt the page layout) — the lazy pool-level epoch check
  /// that lets sessions survive Compact.
  Epoch store_epoch() const;

  size_t NumCached() const;
  size_t capacity() const { return capacity_; }

  /// Everything counted since construction (a consistent copy).
  BufferPoolCounters Counters() const;

 private:
  /// Acquire the latch, counting the acquisition in latch_waits when
  /// another thread held it.
  std::unique_lock<std::mutex> Latch() const;
  // The helpers below run with the latch held.
  /// Forget every cached page; returns how many there were.
  size_t DropAll();
  void RefreshIfStale();
  /// Admit `id` as the most recently used page, evicting LRU pages to make
  /// room (charged to `tally`). Returns false, touching nothing, when the
  /// page is already cached.
  bool Admit(PageId id, PoolCounters* tally);
  void Charge(uint64_t micros) const {
    if (clock_ != nullptr) clock_->Advance(micros);
  }

  PageStore* store_;
  size_t capacity_;
  SimClock* clock_;
  DiskCostModel cost_;

  // Everything below is guarded by latch_ (mutable: the const accessors
  // take it too, and count their own waits).
  mutable std::mutex latch_;
  /// Store epoch the cached pages were read at (see store_epoch()).
  Epoch store_epoch_ = 0;
  // Front = most recently used.
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  // Pages brought in by Prefetch() and not yet demanded.
  std::unordered_set<PageId> prefetched_pending_;
  mutable BufferPoolCounters counters_;
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_BUFFER_POOL_H_
