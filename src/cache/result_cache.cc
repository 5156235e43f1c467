#include "cache/result_cache.h"

#include <utility>

namespace neurodb {
namespace cache {

void ResultCache::Insert(const geom::Aabb& box, geom::ElementVec results) {
  Add(CachedResult{box, std::move(results), epoch_, nullptr});
}

void ResultCache::InsertUnscanned(const geom::Aabb& box, ScanFn scan) {
  if (Add(CachedResult{box, {}, epoch_, std::move(scan)})) ++stats_.deferred;
}

bool ResultCache::Add(CachedResult entry) {
  const geom::Aabb& box = entry.box;
  // Zero-volume (planar/degenerate) boxes can never serve a hit —
  // BestOverlap demands positive overlap volume — so storing them would
  // only evict useful entries from the FIFO.
  if (capacity_ == 0 || !box.IsValid() || box.Volume() <= 0.0) return false;

  // An existing entry covering the whole box already answers everything the
  // new entry could; refresh its recency instead of storing a subset.
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].box.Contains(box)) {
      CachedResult kept = std::move(entries_[i]);
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      entries_.push_back(std::move(kept));
      return false;
    }
  }

  // Drop entries the new box subsumes — they can never win BestOverlap
  // against it.
  for (size_t i = entries_.size(); i-- > 0;) {
    if (box.Contains(entries_[i].box)) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      ++stats_.evictions;
    }
  }

  entries_.push_back(std::move(entry));
  ++stats_.insertions;
  while (entries_.size() > capacity_) {
    entries_.pop_front();
    ++stats_.evictions;
  }
  return true;
}

Status ResultCache::Scan(size_t i) {
  CachedResult& entry = entries_[i];
  if (entry.scanned()) return Status::OK();
  const ScanFn scan = std::exchange(entry.scan, nullptr);
  Status status = scan(entry.box, &entry.results);
  if (!status.ok()) {
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    ++stats_.evictions;
    return status;
  }
  ++stats_.scanned;
  return Status::OK();
}

void ResultCache::DropUnscanned() {
  for (size_t i = entries_.size(); i-- > 0;) {
    if (!entries_[i].scanned()) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      ++stats_.evictions;
    }
  }
}

void ResultCache::AdvanceEpoch(storage::Epoch epoch, const geom::Aabb& dirty) {
  epoch_ = epoch;
  if (!dirty.IsValid()) return;
  for (size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].box.Intersects(dirty)) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      ++stats_.invalidated_boxes;
    }
  }
}

std::optional<size_t> ResultCache::BestOverlap(const geom::Aabb& box,
                                               double min_covered_fraction) {
  ++stats_.lookups;
  std::optional<size_t> best;
  // Zero-volume (face-touch) intersections cover nothing — serving them
  // would run the full query as residuals plus a pointless merge — and
  // anything below the caller's coverage threshold is likewise a miss.
  double best_volume =
      std::max(0.0, box.Volume() * min_covered_fraction);
  if (box.IsValid()) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].box.Intersects(box)) continue;
      double volume = geom::OverlapVolume(entries_[i].box, box);
      // Among equal qualifying overlaps, >= prefers the most recent entry.
      if (volume > 0.0 && volume >= best_volume) {
        best_volume = volume;
        best = i;
      }
    }
  }
  if (best.has_value()) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return best;
}

void ResultCache::Clear() {
  stats_.evictions += entries_.size();
  entries_.clear();
}

}  // namespace cache
}  // namespace neurodb
