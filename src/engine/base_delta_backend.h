// NeuroDB — BaseDeltaBackend: the shared base+delta read/write plumbing of
// every built-in backend.
//
// FlatBackend, PagedRTreeBackend, GridBackend and ShardedBackend used to
// each own the same skeleton: a built-once immutable index, a built() guard,
// a RangeQuery/KnnQuery pair translating index statistics. BaseDeltaBackend
// hoists that skeleton and extends it with mutability:
//
//   * Build() guards double-builds, delegates layout to the subclass's
//     BuildBase() hook and retains the (id-sorted) base element list — the
//     canonical input of the next Compact rebuild;
//   * RangeQuery() answers from the immutable base (BaseRangeQuery hook)
//     when the delta is empty — the zero-overhead read-only fast path — and
//     otherwise merges: base results with dead ids filtered, plus the live
//     delta inserts intersecting the box, under the global ascending-id
//     insert order;
//   * KnnQuery() asks the base for k neighbours, re-asks with a doubled k
//     while fewer than k of the hits are live (DeltaIndex::MergeKnn), and
//     seeds the accumulator from the delta side too, so the merged frontier
//     is exact under the (distance, id) order; every ask is charged to the
//     query's RangeStats;
//   * Insert/Erase/Move write the delta; Compact() folds it into a rebuilt
//     base via ResetBase() + BuildBase() over DeltaIndex::ApplyTo and
//     leaves the delta empty.
//
// MVCC-lite: the pending delta is the writer's working copy; a
// VersionRing of immutable DeltaIndex snapshots — one published per applied
// batch epoch — is the readers' view. RangeQueryAt/KnnQueryAt resolve a
// pinned read epoch through the ring, so a reader at epoch E keeps getting
// the E answer while ApplyBatch publishes E+1. kLatestEpoch bypasses the
// ring and reads the pending delta (the single-threaded fast path).
// Publishing copies the delta's chunk directories, not its records: a
// batch's publish costs O(chunks the batch touched + delta size / chunk
// size), and a trimmed version frees only the chunks no newer version
// shares (engine/delta_index.h). Compact clears the ring (older versions
// describe states the rebuilt base can no longer reproduce); pinned
// readers then see OutOfRange and re-pin.
//
// ShardedBackend specializes the write path (per-shard deltas routed by the
// median-split bounds, spill delta for out-of-bounds inserts) but reuses
// the same wrapper for its spill.

#ifndef NEURODB_ENGINE_BASE_DELTA_BACKEND_H_
#define NEURODB_ENGINE_BASE_DELTA_BACKEND_H_

#include <memory>
#include <vector>

#include "engine/backend.h"
#include "engine/delta_index.h"

namespace neurodb {
namespace engine {

class BaseDeltaBackend : public SpatialBackend {
 public:
  /// Guard + BuildBase + base element retention. Subclasses with a custom
  /// layout pipeline (ShardedBackend) override retain_base_elements().
  /// Publishes the initial (empty-delta) version at epoch 0.
  Status Build(const geom::ElementVec& elements) override;

  /// Base answer merged with the live delta (see header). Subclass query
  /// hooks, not this wrapper, are where index-specific traversal lives.
  Status RangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                    ResultVisitor& visitor,
                    RangeStats* stats = nullptr) const override;

  Status KnnQuery(const geom::Vec3& point, size_t k, storage::PoolSet* pools,
                  std::vector<geom::KnnHit>* hits,
                  RangeStats* stats = nullptr) const override;

  /// Base answer merged with the delta version pinned at `read_epoch`
  /// (kLatestEpoch = the live pending delta). OutOfRange when `read_epoch`
  /// predates the retention window or a compaction.
  Status RangeQueryAt(storage::Epoch read_epoch, const geom::Aabb& box,
                      storage::PoolSet* pools, ResultVisitor& visitor,
                      RangeStats* stats = nullptr) const override;

  Status KnnQueryAt(storage::Epoch read_epoch, const geom::Vec3& point,
                    size_t k, storage::PoolSet* pools,
                    std::vector<geom::KnnHit>* hits,
                    RangeStats* stats = nullptr) const override;

  bool SupportsUpdates() const override { return true; }

  /// Mutate-and-republish: the standalone single-writer API. Each call
  /// applies to the pending delta and refreshes the newest published
  /// version in place (same epoch — no commit happened). Batched epoch'd
  /// mutation goes through ApplyBatch instead.
  Status Insert(geom::ElementId id, const geom::Aabb& bounds) override;
  Status Erase(geom::ElementId id) override;
  Status Move(geom::ElementId id, const geom::Aabb& bounds) override;

  /// Mutate the pending delta only — no version is published until
  /// PublishVersion/RepublishLatest. Virtual so ShardedBackend routes
  /// operations to the owning shard; these are the per-op building blocks
  /// ApplyBatch composes.
  virtual Status InsertPending(geom::ElementId id, const geom::Aabb& bounds);
  virtual Status ErasePending(geom::ElementId id);
  virtual Status MovePending(geom::ElementId id, const geom::Aabb& bounds);

  /// Apply the whole batch to the pending state, then publish one immutable
  /// version at `epoch` — the engine's per-batch commit.
  Status ApplyBatch(const std::vector<UpdateRequest>& updates,
                    storage::Epoch epoch) override;

  /// Publish the pending delta as the version at `epoch`: a copy of its
  /// chunk directories, sharing every chunk. Skips even that when nothing
  /// changed since the last publish (an untouched backend still resolves
  /// epoch E+1 to its older identical version).
  void PublishVersion(storage::Epoch epoch) override;

  /// Refresh the newest published version in place after an unbatched
  /// mutation (no new epoch). Public so ShardedBackend can cascade it to
  /// its inner shards (protected members are not accessible through a
  /// sibling-typed object).
  virtual void RepublishLatest();

  void SetVersionRetention(size_t versions) override {
    versions_.SetRetention(versions);
  }

  /// ResetBase + BuildBase over the merged live set; delta emptied and the
  /// version ring cleared (the engine publishes the post-compact version at
  /// the next epoch). A compact down to zero elements leaves the backend
  /// built with no base (queries then answer from the — empty — delta
  /// alone).
  Status Compact() override;

  size_t DeltaSize() const override { return delta_.Size(); }

  bool built() const { return built_; }
  const DeltaIndex& delta() const { return delta_; }

  /// True when the base side currently indexes no elements (fresh empty
  /// build, or a compact after everything was erased).
  bool base_empty() const { return base_empty_; }

  /// The newest published delta version and its epoch — what a session
  /// pins at the start of each step. `delta` is null only before Build or
  /// transiently during a Compact (callers treat null as "empty delta").
  DeltaSnapshot LatestDelta() const {
    return DeltaSnapshot{versions_.LatestEpoch(), versions_.Latest()};
  }

  /// Published versions currently retained (diagnostics / tests).
  size_t RetainedVersions() const { return versions_.NumVersions(); }

  /// The immutable base's element list, ascending by id (empty for
  /// subclasses that keep their own partitioned copies).
  const geom::ElementVec& base_elements() const { return base_elements_; }

  /// The merged live element set (base minus tombstones plus inserts),
  /// ascending by id — what a fresh Build would be given.
  geom::ElementVec LiveElements() const { return delta_.ApplyTo(base_elements_); }

  /// Tear down the current base and rebuild it over `elements` (must be
  /// sorted ascending by id); clears the delta and the version ring. The
  /// Compact building block, also used by ShardedBackend to rebuild one
  /// shard in place.
  Status ReplaceBase(geom::ElementVec elements);

 protected:
  /// Lay `elements` out and build the index. Called once per Build and once
  /// per Compact (after ResetBase). Never called with an empty vector.
  virtual Status BuildBase(const geom::ElementVec& elements) = 0;

  /// Drop the built index and Reset() the page store(s) so BuildBase can
  /// run again over a new element set.
  virtual Status ResetBase() = 0;

  /// Answer a range query from the immutable base only. `read_epoch` is
  /// the pinned epoch (kLatestEpoch = live state); single-version bases
  /// ignore it, ShardedBackend uses it to pin routing + inner deltas.
  virtual Status BaseRangeQuery(storage::Epoch read_epoch,
                                const geom::Aabb& box, storage::PoolSet* pools,
                                ResultVisitor& visitor,
                                RangeStats* stats) const = 0;

  /// Answer a kNN query from the immutable base only.
  virtual Status BaseKnnQuery(storage::Epoch read_epoch,
                              const geom::Vec3& point, size_t k,
                              storage::PoolSet* pools,
                              std::vector<geom::KnnHit>* hits,
                              RangeStats* stats) const = 0;

  /// Drop all published versions — the base changed shape. ShardedBackend
  /// cascades to its shards and routing snapshot.
  virtual void ResetDeltaVersions() { versions_.Clear(); }

  /// Whether Build should retain its input as base_elements_. Subclasses
  /// that partition the input into inner backends (ShardedBackend) return
  /// false — each inner backend retains its own part.
  virtual bool retain_base_elements() const { return true; }

  /// The merged-read body shared by the live and pinned paths: base answer
  /// through the hooks at `read_epoch`, overlaid with `view`.
  Status RangeQueryView(storage::Epoch read_epoch, const DeltaIndex& view,
                        const geom::Aabb& box, storage::PoolSet* pools,
                        ResultVisitor& visitor, RangeStats* stats) const;
  Status KnnQueryView(storage::Epoch read_epoch, const DeltaIndex& view,
                      const geom::Vec3& point, size_t k,
                      storage::PoolSet* pools, std::vector<geom::KnnHit>* hits,
                      RangeStats* stats) const;

  /// Memory the mutation machinery keeps resident: the retained base
  /// element list (the Compact rebuild input) plus the live delta records.
  /// Subclass Stats() implementations add this to metadata_bytes so the
  /// index-footprint numbers stay honest about the base+delta overhead.
  size_t MutationMetadataBytes() const {
    return base_elements_.capacity() * sizeof(geom::SpatialElement) +
           delta_.Size() * (sizeof(geom::ElementId) + sizeof(geom::Aabb));
  }

  Status RequireBuilt(const char* op) const {
    if (!built_) {
      return Status::InvalidArgument(std::string(name()) + "::" + op +
                                     ": not built");
    }
    return Status::OK();
  }

  DeltaIndex delta_;
  bool built_ = false;
  /// No base index exists (zero elements) — base query hooks are skipped.
  bool base_empty_ = false;

 private:
  geom::ElementVec base_elements_;
  /// Published immutable delta versions, newest last.
  VersionRing<DeltaIndex> versions_;
  /// delta_.revision() at the last publish — the skip-unchanged check.
  uint64_t published_revision_ = 0;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_BASE_DELTA_BACKEND_H_
