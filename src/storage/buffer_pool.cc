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

BufferPool::Entry* BufferPool::Admit(PageId id,
                                     std::shared_ptr<const Page> page,
                                     PoolCounters* tally) {
  if (map_.find(id) != map_.end()) return nullptr;
  while (map_.size() >= capacity_) {
    const Entry& victim = lru_.back();
    if (victim.prefetched) {
      // Prefetched but evicted before ever being used.
      ++counters_.prefetch_evicted_unused;
    }
    map_.erase(victim.id);
    lru_.pop_back();
    ++counters_.evictions;
    if (tally != nullptr) ++tally->evictions;
  }
  lru_.push_front(Entry{id, std::move(page), false});
  map_.emplace(id, lru_.begin());
  return &lru_.front();
}

void BufferPool::Use(Entry& entry) {
  if (!entry.prefetched) return;
  entry.prefetched = false;
  ++counters_.prefetch_used;
}

Result<std::shared_ptr<const Page>> BufferPool::Fetch(PageId id,
                                                      PoolCounters* tally) {
  {
    std::unique_lock<std::mutex> lock = Latch();
    RefreshIfStale();
    auto it = map_.find(id);
    if (it != map_.end()) {
      // Move the page to the front in place: a hit allocates nothing.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      if (tally != nullptr) ++tally->hits;
      Use(*it->second);
      std::shared_ptr<const Page> page = it->second->page;
      lock.unlock();
      Charge(cost_.page_hit_micros);
      return page;
    }
  }
  NEURODB_ASSIGN_OR_RETURN(std::shared_ptr<const Page> page, store_->Read(id));
  {
    std::unique_lock<std::mutex> lock = Latch();
    ++counters_.misses;
    if (tally != nullptr) ++tally->misses;
    // A concurrent Fetch or Prefetch may have admitted the page while we
    // read it: both went to the store, and this demand uses the page.
    if (Admit(id, page, tally) == nullptr) Use(*map_.find(id)->second);
  }
  Charge(cost_.page_read_micros);
  return page;
}

std::shared_ptr<const Page> BufferPool::Peek(PageId id) {
  std::unique_lock<std::mutex> lock = Latch();
  // Peek must not hand out a page cached from a pre-Reset layout.
  RefreshIfStale();
  auto it = map_.find(id);
  return it != map_.end() ? it->second->page : nullptr;
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
  NEURODB_ASSIGN_OR_RETURN(std::shared_ptr<const Page> page, store_->Read(id));
  std::unique_lock<std::mutex> lock = Latch();
  Entry* entry = Admit(id, std::move(page), tally);
  if (entry == nullptr) {
    // A concurrent fetch brought the page in while we read it.
    ++counters_.prefetch_redundant;
    return Status::OK();
  }
  entry->prefetched = true;
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
