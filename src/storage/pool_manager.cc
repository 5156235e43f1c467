#include "storage/pool_manager.h"

namespace neurodb {
namespace storage {

namespace {

/// Hits, misses, evictions and latch waits summed over a set's pools.
void AddSetCounters(const PoolSet& set, BufferPoolCounters* total) {
  for (size_t i = 0; i < set.size(); ++i) {
    const BufferPoolCounters c = set.pool(i)->Counters();
    *total += c;
    total->latch_waits += c.latch_waits;
  }
}

}  // namespace

PoolManager::PoolManager(size_t default_pool_pages)
    : default_pool_pages_(default_pool_pages == 0 ? 1 : default_pool_pages) {}

PoolSet* PoolManager::GetOrCreate(const std::string& name,
                                  const std::vector<PageStore*>& stores,
                                  size_t pages) {
  auto it = sets_.find(name);
  if (it != sets_.end()) {
    ++sets_reused_;
    return it->second.get();
  }
  ++sets_created_;
  auto set = std::make_unique<PoolSet>(
      stores, pages == 0 ? default_pool_pages_ : pages);
  PoolSet* out = set.get();
  sets_.emplace(name, std::move(set));
  return out;
}

PoolSet* PoolManager::Find(const std::string& name) {
  auto it = sets_.find(name);
  return it == sets_.end() ? nullptr : it->second.get();
}

bool PoolManager::Evict(const std::string& name) {
  auto it = sets_.find(name);
  if (it == sets_.end()) return false;
  explicit_evictions_ += it->second->EvictAll();
  return true;
}

void PoolManager::EvictAll() {
  for (auto& [name, set] : sets_) explicit_evictions_ += set->EvictAll();
}

bool PoolManager::Remove(const std::string& name) {
  auto it = sets_.find(name);
  if (it == sets_.end()) return false;
  // Retire the set's history into the manager-level counters so Stats()
  // stays monotonic — removal must not make past hits/misses vanish.
  explicit_evictions_ += it->second->PagesCached();
  AddSetCounters(*it->second, &retired_);
  sets_.erase(it);
  return true;
}

PoolManagerStats PoolManager::Stats() const {
  PoolManagerStats stats;
  stats.pool_sets = sets_.size();
  stats.sets_created = sets_created_;
  stats.sets_reused = sets_reused_;
  BufferPoolCounters total = retired_;
  for (const auto& [name, set] : sets_) {
    stats.pools += set->size();
    stats.pages_cached += set->PagesCached();
    AddSetCounters(*set, &total);
  }
  stats.hits = total.hits;
  stats.misses = total.misses;
  stats.evictions = total.evictions + explicit_evictions_;
  stats.latch_waits = total.latch_waits;
  return stats;
}

}  // namespace storage
}  // namespace neurodb
