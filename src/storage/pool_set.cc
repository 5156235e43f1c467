#include "storage/pool_set.h"

namespace neurodb {
namespace storage {

PoolSet::PoolSet(const std::vector<PageStore*>& stores,
                 size_t total_capacity_pages, SimClock* clock,
                 DiskCostModel cost) {
  size_t per_pool =
      stores.empty() ? 1 : total_capacity_pages / stores.size();
  if (per_pool == 0) per_pool = 1;
  owned_.reserve(stores.size());
  pools_.reserve(stores.size());
  for (PageStore* store : stores) {
    owned_.push_back(
        std::make_unique<BufferPool>(store, per_pool, clock, cost));
    pools_.push_back(owned_.back().get());
  }
}

PoolSet::PoolSet(BufferPool* borrowed) { pools_.push_back(borrowed); }

size_t PoolSet::EvictAll() {
  size_t dropped = 0;
  for (BufferPool* pool : pools_) dropped += pool->EvictAll();
  return dropped;
}

size_t PoolSet::PagesCached() const {
  size_t total = 0;
  for (const BufferPool* pool : pools_) total += pool->NumCached();
  return total;
}

PoolCounters PoolSet::Counters() const {
  PoolCounters c;
  for (const BufferPool* pool : pools_) c += pool->Counters();
  return c;
}

}  // namespace storage
}  // namespace neurodb
