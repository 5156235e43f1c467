#include "storage/buffer_pool.h"

namespace neurodb {
namespace storage {

BufferPool::BufferPool(PageStore* store, size_t capacity_pages, SimClock* clock,
                       DiskCostModel cost)
    : store_(store),
      capacity_(capacity_pages == 0 ? 1 : capacity_pages),
      clock_(clock),
      cost_(cost),
      store_epoch_(store != nullptr ? store->epoch() : 0) {}

std::unique_lock<std::mutex> BufferPool::Latch() const {
  std::unique_lock<std::mutex> lock(latch_, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    ++counters_.latch_waits;
  }
  return lock;
}

size_t BufferPool::DropAll() {
  const size_t dropped = map_.size();
  lru_.clear();
  map_.clear();
  prefetched_pending_.clear();
  return dropped;
}

void BufferPool::RefreshIfStale() {
  // Lazy pool-level epoch check: a store Reset (compaction rebuilt the
  // page layout) bumps the store epoch, so every cached page is from a
  // dead layout. Dropping them here lets long-lived consumers — sessions
  // opened before the Compact — keep using the same pool and simply
  // re-fetch, instead of failing fast.
  if (store_ == nullptr) return;
  const Epoch current = store_->epoch();
  if (current == store_epoch_) return;
  DropAll();
  store_epoch_ = current;
}

bool BufferPool::Admit(PageId id, PoolCounters* tally) {
  if (map_.find(id) != map_.end()) return false;
  while (map_.size() >= capacity_) {
    const PageId victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    if (prefetched_pending_.erase(victim) > 0) {
      // Prefetched but evicted before ever being used.
      ++counters_.prefetch_evicted_unused;
    }
    ++counters_.evictions;
    if (tally != nullptr) ++tally->evictions;
  }
  lru_.push_front(id);
  map_.emplace(id, lru_.begin());
  return true;
}

Result<const Page*> BufferPool::Fetch(PageId id, PoolCounters* tally) {
  bool hit = false;
  {
    std::unique_lock<std::mutex> lock = Latch();
    RefreshIfStale();
    auto it = map_.find(id);
    if (it != map_.end()) {
      // Move the page to the front in place: a hit allocates nothing.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      if (tally != nullptr) ++tally->hits;
      if (prefetched_pending_.erase(id) > 0) ++counters_.prefetch_used;
      hit = true;
    }
  }
  auto page = store_->Read(id);
  if (hit) {
    Charge(cost_.page_hit_micros);
    return page;
  }
  if (!page.ok()) return page.status();
  {
    std::unique_lock<std::mutex> lock = Latch();
    ++counters_.misses;
    if (tally != nullptr) ++tally->misses;
    // A concurrent Fetch or Prefetch may have admitted the page while we
    // read it: both went to the store, and this demand uses the page.
    if (!Admit(id, tally) && prefetched_pending_.erase(id) > 0) {
      ++counters_.prefetch_used;
    }
  }
  Charge(cost_.page_read_micros);
  return page;
}

const Page* BufferPool::Peek(PageId id) {
  {
    std::unique_lock<std::mutex> lock = Latch();
    // Peek must not hand out a page cached from a pre-Reset layout.
    RefreshIfStale();
    if (map_.find(id) == map_.end()) return nullptr;
  }
  return store_->Peek(id);
}

Status BufferPool::Prefetch(PageId id, PoolCounters* tally) {
  {
    std::unique_lock<std::mutex> lock = Latch();
    RefreshIfStale();
    if (map_.find(id) != map_.end()) {
      ++counters_.prefetch_redundant;
      return Status::OK();
    }
  }
  auto page = store_->Read(id);
  if (!page.ok()) return page.status();
  std::unique_lock<std::mutex> lock = Latch();
  if (!Admit(id, tally)) {
    // A concurrent fetch brought the page in while we read it.
    ++counters_.prefetch_redundant;
    return Status::OK();
  }
  prefetched_pending_.insert(id);
  ++counters_.prefetch_issued;
  return Status::OK();
}

size_t BufferPool::EvictAll() {
  std::unique_lock<std::mutex> lock = Latch();
  return DropAll();
}

bool BufferPool::Contains(PageId id) const {
  std::unique_lock<std::mutex> lock = Latch();
  return map_.find(id) != map_.end();
}

Epoch BufferPool::store_epoch() const {
  std::unique_lock<std::mutex> lock = Latch();
  return store_epoch_;
}

size_t BufferPool::NumCached() const {
  std::unique_lock<std::mutex> lock = Latch();
  return map_.size();
}

BufferPoolCounters BufferPool::Counters() const {
  std::unique_lock<std::mutex> lock = Latch();
  return counters_;
}

}  // namespace storage
}  // namespace neurodb
