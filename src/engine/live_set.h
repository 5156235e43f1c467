// NeuroDB — LiveSet: the one copy of an engine's live element set.
//
// Every backend of a QueryEngine indexes the same elements. The LiveSet
// holds them once:
//
//   * the base generation — the id-sorted element list the backends' page
//     layouts were last built over — behind a shared_ptr, so a checkpoint
//     streams from it while a later Compact installs the next generation;
//   * the writer's pending DeltaIndex (inserts and tombstones since that
//     build);
//   * one VersionRing of published, immutable delta versions — one per
//     committed epoch — that every reader resolves its snapshot through.
//
// Backends keep no copy of any of this: they are read-only indexes over
// the base generation and merge a delta version the caller hands them
// (SpatialBackend::RangeQueryView / KnnQueryView). A request pins one
// (epoch, delta) pair with Latest() before its first backend runs and
// holds it by shared_ptr, so however far the ring moves on meanwhile, a
// default-epoch read is never retired.
//
// Writer side (Apply, Publish, Reset, NextBase, Lookup): one thread at a
// time — the engine's commit lock. Reader side (Latest, At, base, size,
// DeltaSize): any thread.

#ifndef NEURODB_ENGINE_LIVE_SET_H_
#define NEURODB_ENGINE_LIVE_SET_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>

#include "common/result.h"
#include "engine/delta_index.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "storage/epoch.h"

namespace neurodb {
namespace engine {

class LiveSet {
 public:
  /// `retained_versions` published delta versions stay resolvable by
  /// explicit epoch (>= 1; 0 is treated as 1).
  explicit LiveSet(size_t retained_versions = 8);

  /// Sort `elements` ascending by id — the order a base generation is
  /// kept in. InvalidArgument when two elements share an id.
  static Result<geom::ElementVec> SortById(geom::ElementVec elements);

  /// Whether every id in `elements` is greater than the one before it, so
  /// that the list is a base generation as it stands. One in-order scan;
  /// InvalidArgument when two neighbours share an id.
  static Result<bool> AscendingById(const geom::ElementVec& elements);

  /// Install `base` (ascending by id) as the base generation at `epoch`:
  /// the pending delta empties and the ring restarts at (epoch, empty
  /// delta), so older epochs resolve no more.
  void Reset(std::shared_ptr<const geom::ElementVec> base,
             storage::Epoch epoch);

  /// Current bounds of live element `id` in the writer's pending state —
  /// the delta first, then a binary search of the base — or nullopt when
  /// no such element is live.
  std::optional<geom::Aabb> Lookup(geom::ElementId id) const;

  /// Apply one validated mutation to the pending delta.
  void Apply(const UpdateRequest& update);

  /// Publish the pending delta as the version at `epoch`: a copy of its
  /// chunk directories, sharing every chunk. Epochs ascend.
  void Publish(storage::Epoch epoch);

  /// The next base generation: the base minus dead ids plus every pending
  /// insert, ascending by id — what Compact rebuilds the backends over.
  geom::ElementVec NextBase() const;

  /// The newest published (epoch, delta) pair.
  DeltaSnapshot Latest() const {
    auto newest = versions_.Latest();
    return DeltaSnapshot{newest.epoch, std::move(newest.snapshot)};
  }

  /// The delta version an explicit read epoch resolves to; OutOfRange
  /// when the epoch predates the retention window or the last Reset.
  Result<std::shared_ptr<const DeltaIndex>> At(storage::Epoch epoch) const {
    return versions_.At(epoch);
  }

  /// The current base generation (never null).
  std::shared_ptr<const geom::ElementVec> base() const;

  /// Live elements as of the newest published version.
  size_t size() const;

  /// Delta records (inserts + tombstones) of the newest published version.
  size_t DeltaSize() const;

 private:
  /// Guards base_ against readers; Reset also holds it across the ring
  /// restart so size() never pairs one generation with another's delta.
  mutable std::mutex base_mu_;
  std::shared_ptr<const geom::ElementVec> base_;
  /// The writer's working copy; readers only see published versions.
  DeltaIndex pending_;
  VersionRing<DeltaIndex> versions_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_LIVE_SET_H_
