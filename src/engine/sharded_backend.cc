#include "engine/sharded_backend.h"

#include <algorithm>
#include <limits>
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
  if (inner_index == ShardIndexKind::kRTree) {
    return inner_rtree.Validate();
  }
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
  // shard whose live population is zero (an empty build, or every element
  // erased since) is skipped outright, so the query pays neither the pool
  // lookup nor the inner-grid scan for it.
  std::vector<size_t> selected;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_sizes_[s] == 0) continue;
    if (shard_bounds_[s].IsValid() && box.Intersects(shard_bounds_[s])) {
      selected.push_back(s);
    }
  }
  return selected;
}

std::vector<size_t> ShardedBackend::SelectShardsIn(
    const Aabb& box, const ShardRouting& routing) const {
  std::vector<size_t> selected;
  for (size_t s = 0; s < routing.bounds.size(); ++s) {
    if (routing.sizes[s] == 0) continue;
    if (routing.bounds[s].IsValid() && box.Intersects(routing.bounds[s])) {
      selected.push_back(s);
    }
  }
  return selected;
}

Status ShardedBackend::Build(const geom::ElementVec& elements) {
  if (built_) {
    return Status::AlreadyExists("ShardedBackend: already built");
  }
  NEURODB_RETURN_NOT_OK(options_.Validate());
  NEURODB_RETURN_NOT_OK(BuildBase(elements));
  built_ = true;
  // The initial version at epoch 0: spill delta (empty), routing snapshot;
  // each shard published its own initial version inside its Build.
  PublishVersion(0);
  return Status::OK();
}

void ShardedBackend::PublishVersion(storage::Epoch epoch) {
  BaseDeltaBackend::PublishVersion(epoch);  // the spill delta
  for (auto& shard : shards_) shard->PublishVersion(epoch);
  // The routing snapshot is tiny (<= 256 boxes), so it publishes
  // unconditionally — no revision bookkeeping for bounds extensions.
  routing_versions_.Publish(epoch, MakeRouting());
}

void ShardedBackend::RepublishLatest() {
  BaseDeltaBackend::RepublishLatest();
  for (auto& shard : shards_) shard->RepublishLatest();
  routing_versions_.Republish(MakeRouting());
}

void ShardedBackend::SetVersionRetention(size_t versions) {
  BaseDeltaBackend::SetVersionRetention(versions);
  for (auto& shard : shards_) shard->SetVersionRetention(versions);
  routing_versions_.SetRetention(versions);
}

void ShardedBackend::ResetDeltaVersions() {
  BaseDeltaBackend::ResetDeltaVersions();
  routing_versions_.Clear();
}

Status ShardedBackend::BuildBase(const geom::ElementVec& elements) {
  // Never build an empty shard: fewer elements than shards degrades to
  // fewer shards (a one-element circuit is a one-shard backend).
  size_t shards = std::max<size_t>(
      1, std::min(options_.num_shards, std::max<size_t>(1, elements.size())));

  std::vector<uint32_t> idx(elements.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<std::pair<size_t, size_t>> runs;
  if (elements.empty()) {
    runs.emplace_back(0, 0);
  } else if (options_.assignment == ShardAssignment::kHilbert) {
    SplitHilbert(elements, &idx, shards, &runs);
  } else {
    SplitRecursive(elements, &idx, 0, elements.size(), shards, &runs);
  }

  shards_.reserve(runs.size());
  shard_bounds_.reserve(runs.size());
  shard_sizes_.reserve(runs.size());
  id_to_shard_.reserve(elements.size());
  for (const auto& [begin, end] : runs) {
    geom::ElementVec part;
    part.reserve(end - begin);
    Aabb bounds;
    for (size_t i = begin; i < end; ++i) {
      part.push_back(elements[idx[i]]);
      bounds.Extend(part.back().bounds);
      id_to_shard_[part.back().id] = static_cast<uint32_t>(shards_.size());
    }
    std::unique_ptr<BaseDeltaBackend> shard = MakeInner();
    if (store_factory_) {
      std::string shard_name =
          std::string(name()) + ".shard" + std::to_string(shards_.size());
      NEURODB_RETURN_NOT_OK(shard->AttachStores(
          [this, &shard_name](const std::string&) {
            return store_factory_(shard_name);
          }));
    }
    NEURODB_RETURN_NOT_OK(shard->Build(part));
    shards_.push_back(std::move(shard));
    shard_bounds_.push_back(bounds);
    shard_sizes_.push_back(end - begin);
  }
  return Status::OK();
}

std::unique_ptr<BaseDeltaBackend> ShardedBackend::MakeInner() const {
  if (options_.inner_index == ShardIndexKind::kRTree) {
    return std::make_unique<PagedRTreeBackend>(options_.inner_rtree);
  }
  return std::make_unique<GridBackend>(options_.inner);
}

Status ShardedBackend::ResetBase() {
  shards_.clear();
  shard_bounds_.clear();
  shard_sizes_.clear();
  id_to_shard_.clear();
  return Status::OK();
}

size_t ShardedBackend::RouteByBounds(const Vec3& center) const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_bounds_[s].IsValid() && shard_bounds_[s].Contains(center)) {
      return s;
    }
  }
  return static_cast<size_t>(-1);
}

Status ShardedBackend::InsertPending(geom::ElementId id, const Aabb& bounds) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Insert"));
  size_t s = RouteByBounds(bounds.Center());
  if (s == static_cast<size_t>(-1)) {
    // Outside every shard: the spill delta (the inherited wrapper merges
    // it over the shard fan-out). Re-homed into a shard at Compact.
    delta_.Insert(id, bounds);
    return Status::OK();
  }
  NEURODB_RETURN_NOT_OK(shards_[s]->InsertPending(id, bounds));
  // The element's box may stick out of the median-split bounds; extending
  // them keeps both range selection and the kNN frontier's lower-bound
  // pruning conservative (bounds only ever grow between compactions).
  shard_bounds_[s].Extend(bounds);
  ++shard_sizes_[s];
  id_to_shard_[id] = static_cast<uint32_t>(s);
  return Status::OK();
}

Status ShardedBackend::ErasePending(geom::ElementId id) {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Erase"));
  auto it = id_to_shard_.find(id);
  if (it == id_to_shard_.end()) {
    // A spill-born element (or an id the engine mis-validated — harmless
    // either way: the spill delta drops the insert or tombstones a ghost).
    delta_.Erase(id);
    return Status::OK();
  }
  size_t s = it->second;
  NEURODB_RETURN_NOT_OK(shards_[s]->ErasePending(id));
  if (shard_sizes_[s] > 0) --shard_sizes_[s];
  id_to_shard_.erase(it);
  return Status::OK();
}

Status ShardedBackend::MovePending(geom::ElementId id, const Aabb& bounds) {
  NEURODB_RETURN_NOT_OK(ErasePending(id));
  return InsertPending(id, bounds);
}

Status ShardedBackend::Compact() {
  NEURODB_RETURN_NOT_OK(RequireBuilt("Compact"));
  if (DeltaSize() == 0) return Status::OK();

  // Per-shard live sets, plus every spill element re-homed into the shard
  // containing its center — or, when none does, the shard whose (live)
  // bounds are nearest (ties: lowest index; a fully erased backend falls
  // back to shard 0).
  std::vector<geom::ElementVec> live(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    live[s] = shards_[s]->LiveElements();
  }
  delta_.ForEachInsert([&](const geom::SpatialElement& e) {
    Vec3 center = e.bounds.Center();
    size_t target = RouteByBounds(center);
    if (target == static_cast<size_t>(-1)) {
      double best = std::numeric_limits<double>::infinity();
      target = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (!shard_bounds_[s].IsValid()) continue;
        double distance = shard_bounds_[s].SquaredDistanceTo(center);
        if (distance < best) {
          best = distance;
          target = s;
        }
      }
    }
    live[target].push_back(e);
  });

  id_to_shard_.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::sort(live[s].begin(), live[s].end(),
              [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
                return a.id < b.id;
              });
    NEURODB_RETURN_NOT_OK(shards_[s]->ReplaceBase(live[s]));
    Aabb bounds;
    for (const auto& e : live[s]) {
      bounds.Extend(e.bounds);
      id_to_shard_[e.id] = static_cast<uint32_t>(s);
    }
    shard_bounds_[s] = bounds;
    shard_sizes_[s] = live[s].size();
  }
  delta_.Clear();
  // Every shard's ring was cleared by its ReplaceBase; clear the spill and
  // routing rings too. The engine publishes the post-compact version next.
  ResetDeltaVersions();
  return Status::OK();
}

size_t ShardedBackend::DeltaSize() const {
  size_t total = delta_.Size();
  for (const auto& shard : shards_) total += shard->DeltaSize();
  return total;
}

std::vector<storage::PageStore*> ShardedBackend::Stores() {
  std::vector<storage::PageStore*> stores;
  stores.reserve(shards_.size());
  for (auto& shard : shards_) stores.push_back(shard->store());
  return stores;
}

Status ShardedBackend::BaseRangeQuery(storage::Epoch read_epoch,
                                      const Aabb& box, storage::PoolSet* pools,
                                      ResultVisitor& visitor,
                                      RangeStats* stats) const {
  if (pools == nullptr) {
    return Status::InvalidArgument("ShardedBackend::RangeQuery: null pool set");
  }
  if (pools->size() != shards_.size()) {
    return Status::InvalidArgument(
        "ShardedBackend::RangeQuery: pool set size != shard count");
  }

  // Pinned readers select shards through the routing snapshot published at
  // their epoch — the live bounds/sizes mutate under concurrent inserts.
  std::vector<size_t> selected;
  if (read_epoch == storage::kLatestEpoch) {
    selected = SelectShards(box);
  } else {
    auto routing = routing_versions_.At(read_epoch);
    NEURODB_RETURN_NOT_OK(routing.status());
    selected = SelectShardsIn(box, **routing);
  }
  if (selected.empty()) return Status::OK();

  // Serial path (no pool, a single shard, or already on a pool worker):
  // stream straight to the visitor in shard order — no buffering.
  const bool fan_out = thread_pool_ != nullptr &&
                       !exec::ThreadPool::InWorker() && selected.size() > 1;
  if (!fan_out) {
    for (size_t s : selected) {
      storage::PoolSet shard_pool(pools->pool(s));
      RangeStats shard_stats;
      NEURODB_RETURN_NOT_OK(shards_[s]->RangeQueryAt(
          read_epoch, box, &shard_pool, visitor,
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
      NEURODB_RETURN_NOT_OK(shards_[s]->RangeQueryAt(
          read_epoch, box, &shard_pool, runs[i].out,
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

Status ShardedBackend::BaseKnnQuery(storage::Epoch read_epoch,
                                    const Vec3& point, size_t k,
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

  // Pinned readers walk the frontier of their routing snapshot.
  std::shared_ptr<const ShardRouting> pinned;
  if (read_epoch != storage::kLatestEpoch) {
    auto routing = routing_versions_.At(read_epoch);
    NEURODB_RETURN_NOT_OK(routing.status());
    pinned = *routing;
  }
  const std::vector<Aabb>& bounds =
      pinned != nullptr ? pinned->bounds : shard_bounds_;
  const std::vector<size_t>& sizes =
      pinned != nullptr ? pinned->sizes : shard_sizes_;

  // Best-first over the shard frontier: visit shards by ascending distance
  // from the query point to the shard box (ties by shard id), and stop as
  // soon as the next shard cannot improve the current k-th hit. Prune
  // strictly greater only — at equal distance a smaller id could still
  // enter the answer (geom/knn.h).
  std::vector<std::pair<double, size_t>> frontier;
  frontier.reserve(shards_.size());
  for (size_t s = 0; s < bounds.size(); ++s) {
    // Population-based pruning: an empty shard can contribute nothing, so
    // it never enters the frontier even when its bounds are closest.
    if (sizes[s] == 0 || !bounds[s].IsValid()) continue;
    frontier.emplace_back(geom::KnnDistance(point, bounds[s]), s);
  }
  std::sort(frontier.begin(), frontier.end());

  geom::KnnAccumulator acc(k);
  for (const auto& [distance, s] : frontier) {
    if (acc.Full() && distance > acc.WorstDistance()) break;
    storage::PoolSet shard_pool(pools->pool(s));
    std::vector<geom::KnnHit> shard_hits;
    RangeStats shard_stats;
    NEURODB_RETURN_NOT_OK(shards_[s]->KnnQueryAt(
        read_epoch, point, k, &shard_pool, &shard_hits,
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
  if (!built_) return stats;
  for (const auto& shard : shards_) {
    BackendStats inner = shard->Stats();
    stats.index_pages += inner.index_pages;
    stats.metadata_bytes += inner.metadata_bytes;
    stats.io += inner.io;
  }
  stats.metadata_bytes += shard_bounds_.capacity() * sizeof(Aabb) +
                          shard_sizes_.capacity() * sizeof(size_t) +
                          id_to_shard_.size() *
                              (sizeof(geom::ElementId) + sizeof(uint32_t)) +
                          MutationMetadataBytes();  // the spill delta
  return stats;
}

uint64_t ShardedBackend::TotalStoreReads() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->store()->NumReads();
  return total;
}

}  // namespace engine
}  // namespace neurodb
