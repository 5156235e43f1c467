// NeuroDB — DeltaIndex: the in-memory write side of the base+delta design.
//
// Every index in the library is bulk-built and immutable — the right shape
// for the paper's read-only exhibits, the wrong shape for growing circuits.
// Instead of teaching four very different physical indexes to mutate in
// place, mutation is layered *over* them: the built index stays the
// immutable base, and a DeltaIndex absorbs the changes since the last
// (re)build as
//
//   * inserts — new elements, ascending by id, so every enumeration is in
//     the same deterministic ascending-id order the built indexes and the
//     result cache use;
//   * tombstones — ids whose base copy is dead (erase = tombstone,
//     move = tombstone + re-insert at the new bounds), ascending.
//
// A merged query answer is: base results with dead ids filtered out, plus
// the live inserts intersecting the query (SpatialBackend::RangeQueryView
// in engine/backend.h). Compact folds the delta back into a rebuilt base
// and empties it. An engine holds exactly one pending DeltaIndex, in its
// LiveSet (engine/live_set.h).
//
// Readers never see the writer's DeltaIndex: every committed batch
// publishes a copy into a VersionRing (below). Both sequences are
// therefore stored copy-on-write, after the shadowing of copy-on-write
// B-trees (Rodeh, "B-trees, shadowing, and clones", ACM TOS 2008): each is
// a directory of (last id, shared immutable chunk of <= kChunkRecords
// records) slots. A copy shares every chunk and duplicates only the two
// directories, so a publish costs O(records / kChunkRecords) pointer
// copies instead of one allocation per record; a write clones just the
// chunk it touches, and a trimmed version frees only the chunks no other
// version still shares.
//
// An UpdateLog records one (epoch, dirty box) stamp per applied batch, so
// late observers — exploration sessions holding their own result caches —
// can catch up on exactly the invalidations they missed.

#ifndef NEURODB_ENGINE_DELTA_INDEX_H_
#define NEURODB_ENGINE_DELTA_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/knn.h"
#include "geom/vec3.h"
#include "storage/epoch.h"

namespace neurodb {
namespace engine {

/// Kind of one mutation.
enum class UpdateKind {
  /// Add a new element (id must not be live).
  kInsert,
  /// Remove a live element.
  kErase,
  /// Re-locate a live element (tombstone + insert under the hood).
  kMove,
};

/// One mutation of the loaded dataset. `bounds` is the new bounding box for
/// kInsert/kMove and ignored for kErase.
struct UpdateRequest {
  UpdateKind kind = UpdateKind::kInsert;
  geom::ElementId id = 0;
  geom::Aabb bounds;
};

/// One applied update batch: the epoch it created and the union of every
/// bounding box it touched (old and new positions) — the region whose
/// cached results are stale.
struct EpochStamp {
  storage::Epoch epoch = 0;
  geom::Aabb dirty;
};

/// The engine's history of applied batches, oldest first. Sessions replay
/// the suffix they have not yet seen to invalidate their private caches.
/// Internally synchronized: sessions read it while ApplyUpdates appends.
class UpdateLog {
 public:
  void Append(storage::Epoch epoch, const geom::Aabb& dirty) {
    std::lock_guard<std::mutex> lock(mu_);
    stamps_.push_back(EpochStamp{epoch, dirty});
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_.size();
  }

  /// The suffix of stamps at index >= `from`, copied out — a reference into
  /// the vector would be invalidated by a concurrent Append reallocation.
  std::vector<EpochStamp> StampsSince(size_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (from >= stamps_.size()) return {};
    return std::vector<EpochStamp>(stamps_.begin() + from, stamps_.end());
  }

  /// The current epoch: 0 before any update, else the newest stamp's.
  storage::Epoch epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_.empty() ? 0 : stamps_.back().epoch;
  }

 private:
  mutable std::mutex mu_;
  std::vector<EpochStamp> stamps_;
};

/// In-memory inserts plus tombstones over an immutable base. Pure
/// mechanism: liveness validation (does this id exist?) is the engine's
/// job — the delta applies whatever it is told, with last-write-wins
/// upsert semantics that make Move(id) correct for both base elements and
/// delta-born ones.
///
/// Both sides are id-sorted sequences of immutable chunks (ChunkedIdSeq
/// below). Copying a DeltaIndex copies only the two chunk directories, so
/// publishing a version costs O(directory) and a write costs one chunk
/// clone: a snapshot shares every chunk the writer has not touched since,
/// and no write can change a chunk a snapshot holds.
class DeltaIndex {
 public:
  /// Most records one chunk holds; a write that overfills a chunk splits
  /// it in half.
  static constexpr size_t kChunkRecords = 128;

  /// Upsert `id` at `bounds` as a live delta element.
  void Insert(geom::ElementId id, const geom::Aabb& bounds) {
    inserts_.Put(geom::SpatialElement(id, bounds), /*replace=*/true);
  }

  /// Kill `id`: a delta-born element is simply dropped; a base element
  /// gets a tombstone (its page copy cannot be removed until Compact).
  void Erase(geom::ElementId id) {
    if (!inserts_.Erase(id)) tombstones_.Put(id, /*replace=*/false);
  }

  /// Relocate `id` to `bounds`. The base copy (if any) is tombstoned; the
  /// delta copy is upserted at the new position.
  void Move(geom::ElementId id, const geom::Aabb& bounds) {
    if (inserts_.Put(geom::SpatialElement(id, bounds), /*replace=*/true)) {
      tombstones_.Put(id, /*replace=*/false);
    }
  }

  /// True when a *base* element with this id must not be reported: it is
  /// tombstoned, or shadowed by a delta copy (a Move's re-insert).
  bool IsDead(geom::ElementId id) const {
    return tombstones_.Contains(id) || inserts_.Contains(id);
  }

  /// The live insert with this id, or null when there is none.
  const geom::SpatialElement* FindInsert(geom::ElementId id) const {
    return inserts_.Find(id);
  }

  /// True when `id` has a tombstone (its base copy is dead).
  bool IsTombstoned(geom::ElementId id) const {
    return tombstones_.Contains(id);
  }

  /// Append every live insert intersecting `box` to `out`, ascending by id.
  void AppendInserts(const geom::Aabb& box, geom::ElementVec* out) const {
    ForEachInsert([&](const geom::SpatialElement& e) {
      if (e.bounds.Intersects(box)) out->push_back(e);
    });
  }

  /// THE range-merge rule, in one place: given the base answer for `box`
  /// in `elements`, drop dead base elements and append the live inserts
  /// intersecting `box`. Every read path — backend wrapper, session
  /// steps, predicted cache entries' scans — overlays through here, so the
  /// merge semantics cannot drift apart between them.
  void Overlay(const geom::Aabb& box, geom::ElementVec* elements) const {
    if (Empty()) return;
    elements->erase(
        std::remove_if(elements->begin(), elements->end(),
                       [this](const geom::SpatialElement& e) {
                         return IsDead(e.id);
                       }),
        elements->end());
    AppendInserts(box, elements);
  }

  /// Offer every live insert to a kNN accumulator — the delta side of the
  /// merged kNN frontier.
  void SeedKnn(const geom::Vec3& point, geom::KnnAccumulator* acc) const {
    ForEachInsert([&](const geom::SpatialElement& e) {
      acc->Offer(e.id, geom::KnnDistance(point, e.bounds));
    });
  }

  /// THE kNN-merge rule, in one place (the backend merge and session kNN
  /// steps both run it): the k best live hits around `point` into `out`.
  /// `base_knn(n, &hits)` must fill `hits` with the base's n best hits
  /// under the (distance, id) order. The base is asked for k; while fewer
  /// than k of its hits are live and it returned all it was asked for, the
  /// ask doubles. Once k live base hits are in hand, every live base
  /// element beyond them is dominated by k of them, so the merge with the
  /// inserts is exact. The ask never passes k + Size(): dead base ids are
  /// tombstones or inserts, so that many hits always leave k live ones.
  /// `reasks` (may be null) gains the number of asks after the first.
  template <typename BaseKnn>
  Status MergeKnn(const geom::Vec3& point, size_t k, BaseKnn&& base_knn,
                  std::vector<geom::KnnHit>* out,
                  uint64_t* reasks = nullptr) const {
    const size_t most = k + Size();
    std::vector<geom::KnnHit> base_hits;
    for (size_t ask = k;; ask = std::min(most, 2 * ask)) {
      NEURODB_RETURN_NOT_OK(base_knn(ask, &base_hits));
      size_t live = 0;
      for (const geom::KnnHit& hit : base_hits) live += !IsDead(hit.id);
      if (live >= k || base_hits.size() < ask || ask >= most) break;
      if (reasks != nullptr) ++*reasks;
    }
    geom::KnnAccumulator acc(k);
    for (const geom::KnnHit& hit : base_hits) {
      if (!IsDead(hit.id)) acc.Offer(hit.id, hit.distance);
    }
    SeedKnn(point, &acc);
    *out = acc.TakeSorted();
    return Status::OK();
  }

  /// Visit every live insert, ascending by id: `fn(const SpatialElement&)`.
  template <typename Fn>
  void ForEachInsert(Fn&& fn) const {
    inserts_.ForEach(fn);
  }

  /// Visit the merged live element set — `base` (which must be sorted
  /// ascending by id, as Build-time layouts are) minus dead ids, plus every
  /// insert — ascending by id, in one pass over the three sorted runs.
  /// `fn(const SpatialElement&)` returns Status; the first error stops the
  /// walk and is returned.
  template <typename Fn>
  Status ForEachLive(const geom::ElementVec& base, Fn&& fn) const {
    auto insert = inserts_.begin();
    auto tombstone = tombstones_.begin();
    for (const geom::SpatialElement& e : base) {
      for (; insert != inserts_.end() && insert->id < e.id; ++insert) {
        NEURODB_RETURN_NOT_OK(fn(*insert));
      }
      // A delta copy shadows the base copy; it is visited in id order by
      // the loop above on a later element, or by the tail loop below.
      if (insert != inserts_.end() && insert->id == e.id) continue;
      while (tombstone != tombstones_.end() && *tombstone < e.id) ++tombstone;
      if (tombstone != tombstones_.end() && *tombstone == e.id) continue;
      NEURODB_RETURN_NOT_OK(fn(e));
    }
    for (; insert != inserts_.end(); ++insert) {
      NEURODB_RETURN_NOT_OK(fn(*insert));
    }
    return Status::OK();
  }

  /// The merged live element set of ForEachLive, collected — the input a
  /// Compact rebuild is run over.
  geom::ElementVec ApplyTo(const geom::ElementVec& base) const;

  /// Union of the live insert bounds (empty Aabb when there are none).
  geom::Aabb InsertBounds() const {
    geom::Aabb bounds;
    ForEachInsert(
        [&](const geom::SpatialElement& e) { bounds.Extend(e.bounds); });
    return bounds;
  }

  size_t InsertCount() const { return inserts_.size(); }
  size_t TombstoneCount() const { return tombstones_.size(); }
  /// Total delta records — the "how overdue is compaction" metric.
  size_t Size() const { return inserts_.size() + tombstones_.size(); }
  bool Empty() const { return inserts_.empty() && tombstones_.empty(); }

  void Clear() {
    inserts_.Clear();
    tombstones_.Clear();
  }

 private:
  static geom::ElementId IdOf(geom::ElementId id) { return id; }
  static geom::ElementId IdOf(const geom::SpatialElement& e) { return e.id; }

  /// Records with distinct ids, ascending by id, in immutable chunks of
  /// 1..kChunkRecords records behind a directory of (last id, chunk)
  /// slots. Chunk i holds only ids above chunk i-1's last, so an id
  /// belongs to the first slot whose last is >= it (the last slot when
  /// none is). A write builds a new chunk and swaps it into its slot —
  /// splitting it when it outgrows kChunkRecords, dropping the slot when
  /// it empties — and never writes to a chunk already in a directory.
  template <typename Record>
  class ChunkedIdSeq {
    using Chunk = std::vector<Record>;
    struct Slot {
      geom::ElementId last;
      std::shared_ptr<const Chunk> chunk;
    };

   public:

    /// Forward iterator over the records, ascending by id.
    class Iterator {
     public:
      const Record& operator*() const { return (*(*dir_)[slot_].chunk)[pos_]; }
      const Record* operator->() const { return &**this; }
      Iterator& operator++() {
        if (++pos_ == (*dir_)[slot_].chunk->size()) {
          ++slot_;
          pos_ = 0;
        }
        return *this;
      }
      bool operator==(const Iterator& o) const {
        return slot_ == o.slot_ && pos_ == o.pos_;
      }

     private:
      friend class ChunkedIdSeq;
      Iterator(const std::vector<Slot>* dir, size_t slot)
          : dir_(dir), slot_(slot) {}
      const std::vector<Slot>* dir_;
      size_t slot_;
      size_t pos_ = 0;
    };

    Iterator begin() const { return Iterator(&dir_, 0); }
    Iterator end() const { return Iterator(&dir_, dir_.size()); }

    template <typename Fn>
    void ForEach(Fn& fn) const {
      for (const Slot& slot : dir_) {
        for (const Record& record : *slot.chunk) fn(record);
      }
    }

    /// The record with `id`, or null when there is none.
    const Record* Find(geom::ElementId id) const {
      const size_t s = SlotOf(id);
      if (s == dir_.size()) return nullptr;
      const Chunk& chunk = *dir_[s].chunk;
      auto it = LowerBound(chunk, id);
      return it != chunk.end() && IdOf(*it) == id ? &*it : nullptr;
    }

    bool Contains(geom::ElementId id) const { return Find(id) != nullptr; }

    /// Add `record`. An existing record with its id is overwritten when
    /// `replace`, else left alone. Returns true when the id was new.
    bool Put(const Record& record, bool replace) {
      const geom::ElementId id = IdOf(record);
      if (dir_.empty()) {
        dir_.push_back(Slot{id, std::make_shared<const Chunk>(1, record)});
        ++size_;
        return true;
      }
      const size_t s = std::min(SlotOf(id), dir_.size() - 1);
      const Chunk& old = *dir_[s].chunk;
      const size_t pos = LowerBound(old, id) - old.begin();
      if (pos < old.size() && IdOf(old[pos]) == id) {
        if (replace) {
          auto copy = std::make_shared<Chunk>(old);
          (*copy)[pos] = record;
          dir_[s].chunk = std::move(copy);
        }
        return false;
      }
      Chunk grown;
      grown.reserve(old.size() + 1);
      grown.insert(grown.end(), old.begin(), old.begin() + pos);
      grown.push_back(record);
      grown.insert(grown.end(), old.begin() + pos, old.end());
      ++size_;
      if (grown.size() <= kChunkRecords) {
        dir_[s] = Slot{IdOf(grown.back()), std::make_shared<const Chunk>(
                                               std::move(grown))};
        return true;
      }
      const auto mid = grown.begin() + grown.size() / 2;
      auto low = std::make_shared<const Chunk>(grown.begin(), mid);
      auto high = std::make_shared<const Chunk>(mid, grown.end());
      dir_[s] = Slot{IdOf(high->back()), std::move(high)};
      dir_.insert(dir_.begin() + s, Slot{IdOf(low->back()), std::move(low)});
      return true;
    }

    /// Remove the record with `id`; false when there is none.
    bool Erase(geom::ElementId id) {
      const size_t s = SlotOf(id);
      if (s == dir_.size()) return false;
      const Chunk& old = *dir_[s].chunk;
      auto it = LowerBound(old, id);
      if (it == old.end() || IdOf(*it) != id) return false;
      --size_;
      if (old.size() == 1) {
        dir_.erase(dir_.begin() + s);
        return true;
      }
      Chunk shrunk;
      shrunk.reserve(old.size() - 1);
      shrunk.insert(shrunk.end(), old.begin(), it);
      shrunk.insert(shrunk.end(), it + 1, old.end());
      dir_[s] = Slot{IdOf(shrunk.back()),
                     std::make_shared<const Chunk>(std::move(shrunk))};
      return true;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    void Clear() {
      dir_.clear();
      size_ = 0;
    }

   private:
    /// The first slot whose last id is >= `id`; dir_.size() when none is.
    size_t SlotOf(geom::ElementId id) const {
      return std::lower_bound(dir_.begin(), dir_.end(), id,
                              [](const Slot& slot, geom::ElementId key) {
                                return slot.last < key;
                              }) -
             dir_.begin();
    }

    static typename Chunk::const_iterator LowerBound(const Chunk& chunk,
                                                     geom::ElementId id) {
      return std::lower_bound(chunk.begin(), chunk.end(), id,
                              [](const Record& record, geom::ElementId key) {
                                return IdOf(record) < key;
                              });
    }

    std::vector<Slot> dir_;
    size_t size_ = 0;
  };

  /// Live delta elements, ascending by id (deterministic enumeration).
  ChunkedIdSeq<geom::SpatialElement> inserts_;
  /// Ids whose base copy is dead, ascending.
  ChunkedIdSeq<geom::ElementId> tombstones_;
};

/// One published, immutable delta version: the state of a DeltaIndex as of
/// `epoch`. Readers pinned at a read epoch resolve their view through one
/// of these; the shared_ptr keeps the version alive for as long as any
/// in-flight query still holds it, even after the ring trims it.
struct DeltaSnapshot {
  storage::Epoch epoch = 0;
  std::shared_ptr<const DeltaIndex> delta;
};

/// VersionRing — the MVCC-lite retention window: the last few published
/// (epoch, snapshot) pairs of some copy-on-write state, ascending by epoch.
/// The writer Publishes a new immutable snapshot per committed epoch;
/// readers resolve a pinned read epoch E to the newest snapshot with
/// epoch <= E. Internally synchronized (one mutex, snapshot handout by
/// shared_ptr copy), so readers never block each other and never observe a
/// half-published version.
template <typename T>
class VersionRing {
 public:
  /// One published snapshot and the epoch it describes.
  struct Version {
    storage::Epoch epoch = 0;
    std::shared_ptr<const T> snapshot;
  };

  explicit VersionRing(size_t retention = 8)
      : retention_(retention == 0 ? 1 : retention) {}

  /// Publish `snapshot` as the state at `epoch`. Epochs must be pushed in
  /// ascending order; the oldest version falls off past the retention cap.
  void Publish(storage::Epoch epoch, std::shared_ptr<const T> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(Version{epoch, std::move(snapshot)});
    while (entries_.size() > retention_) entries_.erase(entries_.begin());
  }

  /// Drop all history and restart the ring at (`epoch`, `snapshot`) — the
  /// Build and Compact paths: older versions describe states the new base
  /// generation cannot reproduce.
  void Reset(storage::Epoch epoch, std::shared_ptr<const T> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    entries_.push_back(Version{epoch, std::move(snapshot)});
  }

  /// The newest snapshot with epoch <= `read_epoch`. OutOfRange when
  /// `read_epoch` predates the retention window — the caller's snapshot has
  /// been retired and it must re-pin.
  Result<std::shared_ptr<const T>> At(storage::Epoch read_epoch) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->epoch <= read_epoch) return it->snapshot;
    }
    return Status::OutOfRange(
        "VersionRing: read epoch retired (older than the retention window)");
  }

  /// The newest version, read in one step (snapshot null and epoch 0 when
  /// nothing was ever published).
  Version Latest() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.empty() ? Version{} : entries_.back();
  }

 private:
  mutable std::mutex mu_;
  size_t retention_;
  std::vector<Version> entries_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_DELTA_INDEX_H_
