// NeuroDB — ResultCache: semantic caching of evaluated range queries.
//
// Interactive exploration is dominated by *overlap*: consecutive
// walkthrough boxes share most of their volume, and SCOUT predicts where
// the next box lands. A ResultCache keeps the last K evaluated boxes with
// their exact, id-ordered result sets; DeltaPlanner (delta_planner.h) then
// decomposes a new box into a covered fragment answered from the cache and
// at most six residual boxes answered by the backend. Because every cached
// entry is the complete answer for its coverage AABB, an element
// intersecting the covered fragment is guaranteed to be in the entry — the
// delta answer is exact, not approximate (cf. incremental query answering
// under updates, PAPERS.md). A predicted box may be stored unscanned, with
// an opaque scan that computes its result set the first time a plan reads
// the entry: most predictions are never read.
//
// The cache is a pure geometry/value structure: it knows nothing about
// backends, pools or clocks, so one implementation serves the engine's
// warm/batch path, the per-lane batch caches and the exploration sessions.

#ifndef NEURODB_CACHE_RESULT_CACHE_H_
#define NEURODB_CACHE_RESULT_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "common/status.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "storage/epoch.h"

namespace neurodb {
namespace cache {

/// Sort elements ascending by id — the one ordering every cached result
/// set and delta-merged answer uses.
inline void SortById(geom::ElementVec* elements) {
  std::sort(elements->begin(), elements->end(),
            [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
              return a.id < b.id;
            });
}

/// Cache lifecycle counters.
struct CacheStats {
  uint64_t lookups = 0;
  /// Lookups that found an overlapping entry.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  /// Entries dropped by capacity, subsumption, Clear, DropUnscanned or a
  /// failed Scan.
  uint64_t evictions = 0;
  /// Entries dropped because an update batch dirtied their region
  /// (AdvanceEpoch) — the cache's invalidation churn, reported alongside
  /// hits/misses by the update benchmarks and session aggregates.
  uint64_t invalidated_boxes = 0;
  /// Insertions made unscanned (InsertUnscanned; also counted in
  /// insertions), and the unscanned entries whose scan Scan later ran.
  uint64_t deferred = 0;
  uint64_t scanned = 0;
};

/// Computes an unscanned entry's result set: appends the complete answer
/// for `box`, ascending by id, to `results`.
using ScanFn =
    std::function<Status(const geom::Aabb& box, geom::ElementVec* results)>;

/// One cached evaluated box: its coverage AABB, the exact result set
/// (ascending by element id), and the data epoch it was computed at. Every
/// resident entry is valid for the *current* epoch — AdvanceEpoch drops
/// entries an update invalidated — so the tag records provenance, not
/// staleness.
struct CachedResult {
  geom::Aabb box;
  geom::ElementVec results;
  storage::Epoch epoch = 0;
  /// Set while the entry is unscanned: `results` stays empty until
  /// ResultCache::Scan runs this once. The cache never looks inside it.
  ScanFn scan;

  bool scanned() const { return scan == nullptr; }
};

/// FIFO cache of the last `capacity` evaluated boxes. Insertion drops
/// entries the new box subsumes; inserting a box an existing entry already
/// covers refreshes that entry instead of duplicating it. Insert, Covers,
/// BestOverlap and AdvanceEpoch read boxes only, so an unscanned entry takes
/// part in them exactly like a scanned one.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity_boxes = 8)
      : capacity_(capacity_boxes) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }
  bool enabled() const { return capacity_ > 0; }

  /// Entry `i`, oldest first. Its `results` are meaningful only once it is
  /// scanned().
  const CachedResult& entry(size_t i) const { return entries_[i]; }

  /// Remember `results` (must be the complete answer for `box`, sorted
  /// ascending by id) as the newest entry, stamped with the current epoch.
  /// No-op when capacity is 0.
  void Insert(const geom::Aabb& box, geom::ElementVec results);

  /// Remember `box` as the newest entry without its results: `scan`
  /// computes them the first time Scan is called on the entry, which may
  /// be never. Stored under Insert's rules.
  void InsertUnscanned(const geom::Aabb& box, ScanFn scan);

  /// Make entry `i` scanned: run its scan if it has not run yet (counted in
  /// `scanned`). A failed scan drops the entry and returns its status.
  Status Scan(size_t i);

  /// Drop every unscanned entry, e.g. when the pages their scans read are
  /// gone.
  void DropUnscanned();

  /// An update batch moved the data to `epoch`, touching `dirty`: drop
  /// exactly the entries whose coverage box intersects the dirty region
  /// (counted as invalidated_boxes, not evictions) — everything else still
  /// answers byte-identically at the new epoch. An empty dirty box (a
  /// compaction, which changes layout but not results) just advances the
  /// stamp used for future inserts.
  void AdvanceEpoch(storage::Epoch epoch, const geom::Aabb& dirty);

  /// The epoch new entries are stamped with.
  storage::Epoch epoch() const { return epoch_; }

  /// True when an existing entry's coverage box contains `box` — an
  /// insert for `box` would add nothing, so callers can skip preparing
  /// one at all (think-time prepopulation of a repeating path).
  bool Covers(const geom::Aabb& box) const {
    for (const CachedResult& entry : entries_) {
      if (entry.box.Contains(box)) return true;
    }
    return false;
  }

  /// Index of the entry whose intersection with `box` has the largest
  /// volume (ties: the most recent entry), provided that volume is
  /// positive and covers at least `min_covered_fraction` of the box —
  /// overlaps below the threshold are misses, so the hit/miss statistics
  /// report coverage that was actually worth serving. Counts one lookup
  /// and a hit or a miss.
  std::optional<size_t> BestOverlap(const geom::Aabb& box,
                                    double min_covered_fraction = 0.0);

  void Clear();

  const CacheStats& stats() const { return stats_; }

 private:
  /// Insert's rules for a built entry; false when nothing was stored.
  bool Add(CachedResult entry);

  size_t capacity_;
  /// Oldest first; back is the newest.
  std::deque<CachedResult> entries_;
  CacheStats stats_;
  storage::Epoch epoch_ = 0;
};

}  // namespace cache
}  // namespace neurodb

#endif  // NEURODB_CACHE_RESULT_CACHE_H_
