#include "engine/sharded_backend.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "exec/parallel_executor.h"
#include "geom/hilbert.h"

namespace neurodb {
namespace engine {

using geom::Aabb;
using geom::Vec3;

Status ShardedOptions::Validate() const {
  if (num_shards == 0) {
    return Status::InvalidArgument("ShardedOptions: num_shards == 0");
  }
  if (num_shards > 256) {
    return Status::InvalidArgument("ShardedOptions: num_shards > 256");
  }
  if (inner_index == ShardIndexKind::kRTree) return Status::OK();
  return inner.Validate();
}

namespace {

/// Recursive longest-axis median split: cut idx[begin, end) into `parts`
/// contiguous runs of near-proportional size. Deterministic — the
/// nth_element comparator breaks center-coordinate ties by element id, so
/// the same input always yields the same shards on every platform.
void SplitRecursive(const geom::ElementVec& elements,
                    std::vector<uint32_t>* idx, size_t begin, size_t end,
                    size_t parts,
                    std::vector<std::pair<size_t, size_t>>* runs) {
  if (parts <= 1 || end - begin <= 1) {
    runs->emplace_back(begin, end);
    return;
  }
  Aabb centers;
  for (size_t i = begin; i < end; ++i) {
    centers.Extend(elements[(*idx)[i]].bounds.Center());
  }
  Vec3 extent = centers.Extent();
  int axis = 0;
  if (extent.y > extent[axis]) axis = 1;
  if (extent.z > extent[axis]) axis = 2;

  size_t left_parts = parts / 2;
  size_t right_parts = parts - left_parts;
  size_t mid = begin + (end - begin) * left_parts / parts;
  std::nth_element(
      idx->begin() + begin, idx->begin() + mid, idx->begin() + end,
      [&elements, axis](uint32_t a, uint32_t b) {
        float ca = elements[a].bounds.Center()[axis];
        float cb = elements[b].bounds.Center()[axis];
        if (ca != cb) return ca < cb;
        return elements[a].id < elements[b].id;
      });
  SplitRecursive(elements, idx, begin, mid, left_parts, runs);
  SplitRecursive(elements, idx, mid, end, right_parts, runs);
}

/// Hilbert-order assignment: sort element indices by the Hilbert key of
/// their center (ties by element id) and cut the sorted sequence into
/// `parts` contiguous near-equal runs. Shards hug the space-filling curve,
/// so clustered data yields compact shards instead of long median slabs.
void SplitHilbert(const geom::ElementVec& elements, std::vector<uint32_t>* idx,
                  size_t parts,
                  std::vector<std::pair<size_t, size_t>>* runs) {
  Aabb domain;
  for (const auto& e : elements) domain.Extend(e.bounds);
  geom::HilbertMapper mapper(domain);
  std::vector<uint64_t> keys(elements.size());
  for (size_t i = 0; i < elements.size(); ++i) {
    keys[i] = mapper.Key(elements[i].bounds);
  }
  std::sort(idx->begin(), idx->end(), [&](uint32_t a, uint32_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return elements[a].id < elements[b].id;
  });
  const size_t n = idx->size();
  for (size_t s = 0; s < parts; ++s) {
    runs->emplace_back(n * s / parts, n * (s + 1) / parts);
  }
}

}  // namespace

std::vector<size_t> ShardedBackend::SelectShards(const Aabb& box) const {
  // Cost-based selection: bounds intersection alone is not enough — a
  // shard whose population is zero (an empty build, or a compact that left
  // it nothing) is skipped outright, so the query pays neither the pool
  // lookup nor the inner scan for it.
  std::vector<size_t> selected;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_sizes_[s] == 0) continue;
    if (shard_bounds_[s].IsValid() && box.Intersects(shard_bounds_[s])) {
      selected.push_back(s);
    }
  }
  return selected;
}

Status ShardedBackend::BuildBase(const geom::ElementVec& elements) {
  const bool first = shards_.empty();
  if (first) NEURODB_RETURN_NOT_OK(options_.Validate());
  // The first build never makes an empty shard: fewer elements than shards
  // degrades to fewer shards (a one-element circuit is a one-shard
  // backend). A rebuild keeps the shard count — and so the stores.
  const size_t shards =
      first ? std::min(options_.num_shards,
                       std::max<size_t>(1, elements.size()))
            : shards_.size();

  std::vector<uint32_t> idx(elements.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<std::pair<size_t, size_t>> runs;
  if (options_.assignment == ShardAssignment::kHilbert && !elements.empty()) {
    SplitHilbert(elements, &idx, shards, &runs);
  } else {
    SplitRecursive(elements, &idx, 0, elements.size(), shards, &runs);
  }
  // Fewer elements than shards: the trailing shards stay empty.
  while (runs.size() < shards) {
    runs.emplace_back(elements.size(), elements.size());
  }

  shard_bounds_.assign(shards, Aabb());
  shard_sizes_.assign(shards, 0);
  for (size_t s = 0; s < shards; ++s) {
    const auto [begin, end] = runs[s];
    geom::ElementVec part;
    part.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      part.push_back(elements[idx[i]]);
      shard_bounds_[s].Extend(part.back().bounds);
    }
    shard_sizes_[s] = part.size();
    if (!first) {
      NEURODB_RETURN_NOT_OK(shards_[s]->Rebuild(part));
      continue;
    }
    std::unique_ptr<SpatialBackend> shard = MakeInner();
    if (store_factory_) {
      std::string shard_name =
          std::string(name()) + ".shard" + std::to_string(s);
      NEURODB_RETURN_NOT_OK(shard->AttachStores(
          [this, &shard_name](const std::string&) {
            return store_factory_(shard_name);
          }));
    }
    NEURODB_RETURN_NOT_OK(shard->Build(part));
    shards_.push_back(std::move(shard));
  }
  return Status::OK();
}

std::unique_ptr<SpatialBackend> ShardedBackend::MakeInner() const {
  if (options_.inner_index == ShardIndexKind::kRTree) {
    return std::make_unique<PagedRTreeBackend>();
  }
  return std::make_unique<GridBackend>(options_.inner);
}

std::vector<storage::PageStore*> ShardedBackend::Stores() {
  std::vector<storage::PageStore*> stores;
  stores.reserve(shards_.size());
  for (auto& shard : shards_) stores.push_back(shard->store());
  return stores;
}

Status ShardedBackend::BaseRangeQuery(const Aabb& box, storage::PoolSet* pools,
                                      ResultVisitor& visitor,
                                      RangeStats* stats) const {
  if (pools == nullptr) {
    return Status::InvalidArgument("ShardedBackend::RangeQuery: null pool set");
  }
  if (pools->size() != shards_.size()) {
    return Status::InvalidArgument(
        "ShardedBackend::RangeQuery: pool set size != shard count");
  }

  const std::vector<size_t> selected = SelectShards(box);
  if (selected.empty()) return Status::OK();

  // Serial path (no pool, a single shard, or already on a pool worker):
  // stream straight to the visitor in shard order — no buffering.
  const bool fan_out = thread_pool_ != nullptr &&
                       !exec::ThreadPool::InWorker() && selected.size() > 1;
  if (!fan_out) {
    for (size_t s : selected) {
      storage::PoolSet shard_pool(pools->pool(s));
      RangeStats shard_stats;
      NEURODB_RETURN_NOT_OK(shards_[s]->RangeQueryView(
          nullptr, box, &shard_pool, visitor,
          stats != nullptr ? &shard_stats : nullptr));
      if (stats != nullptr) {
        stats->pages_read += shard_stats.pages_read;
        stats->elements_scanned += shard_stats.elements_scanned;
        stats->results += shard_stats.results;
        stats->pool += shard_stats.pool;
      }
    }
    return Status::OK();
  }

  // Parallel fan-out: each selected shard runs against its own pool and
  // buffers its matches; the buffers are replayed to `visitor` and the
  // statistics merged in shard order afterwards, so the result —
  // including visit order — is bit-identical to the serial loop above.
  struct ShardRun {
    CollectingVisitor out;
    RangeStats stats;
  };
  std::vector<ShardRun> runs(selected.size());

  exec::ParallelExecutor executor(thread_pool_);
  std::vector<exec::LaneRange> lanes =
      exec::PartitionLanes(selected.size(), selected.size());
  Status status = executor.Run(lanes, [&](const exec::LaneRange& lane) {
    for (size_t i = lane.begin; i < lane.end; ++i) {
      size_t s = selected[i];
      storage::PoolSet shard_pool(pools->pool(s));
      NEURODB_RETURN_NOT_OK(shards_[s]->RangeQueryView(
          nullptr, box, &shard_pool, runs[i].out,
          stats != nullptr ? &runs[i].stats : nullptr));
    }
    return Status::OK();
  });
  NEURODB_RETURN_NOT_OK(status);

  for (const ShardRun& run : runs) {
    for (const auto& e : run.out.elements()) visitor.Visit(e.id, e.bounds);
    if (stats != nullptr) {
      stats->pages_read += run.stats.pages_read;
      stats->elements_scanned += run.stats.elements_scanned;
      stats->results += run.stats.results;
      stats->pool += run.stats.pool;
    }
  }
  return Status::OK();
}

Status ShardedBackend::BaseKnnQuery(const Vec3& point, size_t k,
                                    storage::PoolSet* pools,
                                    std::vector<geom::KnnHit>* hits,
                                    RangeStats* stats) const {
  if (pools == nullptr) {
    return Status::InvalidArgument("ShardedBackend::KnnQuery: null pool set");
  }
  if (hits == nullptr) {
    return Status::InvalidArgument("ShardedBackend::KnnQuery: null output");
  }
  if (!geom::IsFinitePoint(point)) {
    return Status::InvalidArgument("ShardedBackend::KnnQuery: non-finite point");
  }
  if (pools->size() != shards_.size()) {
    return Status::InvalidArgument(
        "ShardedBackend::KnnQuery: pool set size != shard count");
  }
  hits->clear();
  if (k == 0) return Status::OK();

  // Best-first over the shard frontier: visit shards by ascending distance
  // from the query point to the shard box (ties by shard id), and stop as
  // soon as the next shard cannot improve the current k-th hit. Prune
  // strictly greater only — at equal distance a smaller id could still
  // enter the answer (geom/knn.h).
  std::vector<std::pair<double, size_t>> frontier;
  frontier.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    // Population-based pruning: an empty shard can contribute nothing, so
    // it never enters the frontier even when its bounds are closest.
    if (shard_sizes_[s] == 0 || !shard_bounds_[s].IsValid()) continue;
    frontier.emplace_back(geom::KnnDistance(point, shard_bounds_[s]), s);
  }
  std::sort(frontier.begin(), frontier.end());

  geom::KnnAccumulator acc(k);
  for (const auto& [distance, s] : frontier) {
    if (acc.Full() && distance > acc.WorstDistance()) break;
    storage::PoolSet shard_pool(pools->pool(s));
    std::vector<geom::KnnHit> shard_hits;
    RangeStats shard_stats;
    NEURODB_RETURN_NOT_OK(shards_[s]->KnnQueryView(
        nullptr, point, k, &shard_pool, &shard_hits,
        stats != nullptr ? &shard_stats : nullptr));
    for (const geom::KnnHit& hit : shard_hits) acc.Offer(hit.id, hit.distance);
    if (stats != nullptr) {
      stats->pages_read += shard_stats.pages_read;
      stats->elements_scanned += shard_stats.elements_scanned;
      stats->pool += shard_stats.pool;
    }
  }

  *hits = acc.TakeSorted();
  if (stats != nullptr) stats->results = hits->size();
  return Status::OK();
}

BackendStats ShardedBackend::Stats() const {
  BackendStats stats;
  if (!built()) return stats;
  for (const auto& shard : shards_) {
    BackendStats inner = shard->Stats();
    stats.index_pages += inner.index_pages;
    stats.metadata_bytes += inner.metadata_bytes;
    stats.io += inner.io;
  }
  stats.metadata_bytes += shard_bounds_.capacity() * sizeof(Aabb) +
                          shard_sizes_.capacity() * sizeof(size_t);
  return stats;
}

}  // namespace engine
}  // namespace neurodb
