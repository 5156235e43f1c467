// NeuroDB — engine::Session: an incremental exploration session handle.
//
// scout::WalkthroughSession replays a whole pre-recorded navigation path.
// Interactive callers (the demo's 3-D explorer) instead need to issue one
// range query at a time — where the scientist goes next depends on what the
// previous query showed. A Session owns the session state the walkthrough
// loop used to own privately — simulated clock, buffer pool, prefetcher —
// and exposes it one Step(box) at a time. Between steps the prefetcher
// warms the pool out of the modeled think time, exactly as in the replay
// path, so a Step-by-Step run and a whole-path replay produce identical
// statistics.
//
// With SessionOptions::cache_results the session additionally keeps a
// cache::ResultCache of its last evaluated boxes: an overlapping step is
// decomposed by cache::DeltaPlanner into a covered fragment answered from
// the cache plus at most six residual boxes answered by the index, merged
// under the global id order — the result set is identical to a full
// re-query, the demand I/O is proportional to the *uncovered* volume only.
// During think time the prefetcher's predicted next box is evaluated over
// prefetched pages and inserted into the cache (results, not just pages),
// so a correctly predicted step stalls for nothing.
//
// Sessions opened by QueryEngine::OpenSession are additionally *delta-
// aware*: each step pins the FLAT backend's newest published delta
// snapshot (BaseDeltaBackend::LatestDelta) and merges the immutable crawl
// layout with it (tombstones filtered, inserts appended), stamps its
// StepRecord with the snapshot's epoch, and — before querying — replays
// any UpdateLog stamps it has not yet seen to invalidate exactly the
// cached boxes whose region went dirty. A cached session therefore stays
// byte-identical to a cold one across ApplyUpdates.
//
// Sessions also *survive* QueryEngine::Compact: each step re-reads the
// store's layout epoch, and when a compaction rebuilt the pages the
// session simply adopts the new layout — its buffer pool already evicts
// stale pages through the same store-epoch check
// (storage::BufferPool::store_epoch), and cached result boxes stay valid
// because compaction never changes answers. The one unrecoverable case is
// a base compacted down to nothing (every element erased, then Compact):
// the FLAT index ceases to exist and Step reports it.

#ifndef NEURODB_ENGINE_SESSION_H_
#define NEURODB_ENGINE_SESSION_H_

#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "cache/result_cache.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "engine/base_delta_backend.h"
#include "engine/delta_index.h"
#include "flat/flat_index.h"
#include "geom/aabb.h"
#include "geom/knn.h"
#include "geom/visitor.h"
#include "neuro/circuit.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "scout/prefetcher.h"
#include "scout/session.h"
#include "storage/buffer_pool.h"

namespace neurodb {
namespace engine {

/// Observability hooks an engine threads into the sessions it opens (both
/// borrowed; they must outlive the session). `metrics` receives the
/// session.step.* counters and histograms; `slow_log` receives traced
/// steps whose wall time crosses its threshold. Default-constructed hooks
/// (standalone sessions, or an engine with metrics off) record nothing.
struct SessionObs {
  obs::MetricsRegistry* metrics = nullptr;
  obs::SlowQueryLog* slow_log = nullptr;
};

/// One interactive exploration session. Obtained from
/// QueryEngine::OpenSession; movable, not copyable. All clock/pool state is
/// private to the session, so several sessions can run against one engine —
/// but the session only borrows `index`/`store`/`resolver`, so the engine
/// (or whatever owns them) must outlive the session.
class Session {
 public:
  /// Open a session over a FLAT-indexed dataset. `resolver` may be null
  /// unless `method` is kScout. `delta_source` (the FLAT backend whose
  /// published delta snapshots the session reads) and `update_log` (the
  /// engine's applied-batch history) make the session delta-aware; leaving
  /// them null gives the classic read-only session over the base layout
  /// alone. `read_lock` (the engine's compaction lock) is held shared for
  /// the duration of each step so a step never observes a half-rebuilt
  /// page layout.
  static Result<Session> Open(const flat::FlatIndex* index,
                              storage::PageStore* store,
                              const neuro::SegmentResolver* resolver,
                              scout::PrefetchMethod method,
                              scout::SessionOptions options,
                              const BaseDeltaBackend* delta_source = nullptr,
                              const UpdateLog* update_log = nullptr,
                              std::shared_mutex* read_lock = nullptr,
                              SessionObs hooks = SessionObs{});

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Execute one range query: streams results to `visitor`, charges demand
  /// misses to the session clock, lets the prefetcher spend the think pause
  /// and advances the clock past it. Returns the step's statistics row.
  Result<scout::StepRecord> Step(const geom::Aabb& box,
                                 geom::ResultVisitor& visitor);

  /// Step without materializing results.
  Result<scout::StepRecord> Step(const geom::Aabb& box);

  /// Execute one kNN query through the session pool (FLAT's best-first
  /// browse, flat::FlatIndex::Knn): fills `hits` (when non-null) ascending
  /// by (distance, id), charges demand misses to the session clock and lets
  /// the prefetcher spend the think pause on the neighbourhood of the
  /// answer, exactly as a range Step does. k == 0 and non-finite points are
  /// InvalidArgument; k beyond the dataset clamps.
  Result<scout::StepRecord> StepKnn(const geom::Vec3& point, size_t k,
                                    std::vector<geom::KnnHit>* hits = nullptr);

  /// Statistics over all steps so far (the paper Figure 6 panel). Cheap;
  /// may be called mid-session.
  scout::SessionResult Summary() const;

  size_t NumSteps() const { return steps_.size(); }
  const scout::SessionOptions& options() const { return options_; }
  const char* method_name() const { return prefetcher_->Name(); }

  /// The session's result cache, or nullptr when caching is off
  /// (SessionOptions::cache_results).
  const cache::ResultCache* result_cache() const { return cache_.get(); }

 private:
  Session() = default;

  /// Shared step skeleton: catch up on update-log invalidations, time the
  /// query, account pool deltas, feed the prefetcher the result ids and
  /// the box the answer came from, spend the think pause, record the step
  /// (stamped with the current epoch). `query` fills the result ids and
  /// the prefetch box.
  Result<scout::StepRecord> RunStep(
      const std::function<Status(std::vector<geom::ElementId>* ids,
                                 geom::Aabb* prefetch_box)>& query);

  /// The cached range-step body: delta-decompose `box` against the cache,
  /// answer residuals through the index (merged with the live update
  /// delta), merge under the id order, stream to `visitor`, remember the
  /// full result as the newest cache entry.
  Status CachedRangeStep(const geom::Aabb& box, geom::ResultVisitor& visitor,
                         std::vector<geom::ElementId>* ids);

  /// One index range query over `box` merged with the live update delta:
  /// base matches with dead ids dropped, live inserts appended.
  Status DeltaMergedRange(const geom::Aabb& box, geom::ElementVec* out);

  /// Drop cached boxes dirtied by update batches this session has not yet
  /// observed (no-op without an update log or a cache).
  void CatchUpInvalidations();

  /// The epoch the session currently answers at: the epoch of the delta
  /// snapshot pinned by the running step, else the update log's newest
  /// epoch, else 0.
  uint64_t CurrentEpoch() const {
    if (delta_source_ != nullptr) return snap_.epoch;
    return update_log_ != nullptr ? update_log_->epoch() : 0;
  }

  /// Think-time result prefetch: evaluate the prefetcher's predicted boxes
  /// over pool-resident pages (loading missing ones within the remaining
  /// `budget`) and insert their results into the cache. Returns pages
  /// loaded (they count against the step's prefetch budget).
  size_t PrepopulateCache(size_t budget);

  const flat::FlatIndex* index_ = nullptr;
  /// The crawl-page store the session pool caches, and the layout epoch the
  /// session last adopted — a Compact rebuilds the layout under the pool,
  /// so each step compares epochs and lazily re-adopts the new layout (the
  /// pool evicts its stale pages through the same check).
  const storage::PageStore* store_ = nullptr;
  storage::Epoch store_epoch_at_open_ = 0;
  /// The backend whose published delta snapshots the session steps against
  /// (null: read-only session over the base alone).
  const BaseDeltaBackend* delta_source_ = nullptr;
  /// The delta snapshot pinned for the step currently executing — refreshed
  /// at the top of every step, keeping the delta alive and immutable for
  /// the step's whole merge even while ApplyUpdates publishes newer ones.
  DeltaSnapshot snap_;
  /// Borrowed view of snap_.delta (null: no delta / empty overlay). Query
  /// helpers read this instead of touching delta_source_ directly.
  const DeltaIndex* delta_ = nullptr;
  /// The engine's compaction lock, held shared across each step (null:
  /// standalone session, no locking).
  std::shared_mutex* read_lock_ = nullptr;
  /// Applied-batch history for cache invalidation catch-up (null: none).
  const UpdateLog* update_log_ = nullptr;
  /// Update stamps already replayed into the session cache.
  size_t log_seen_ = 0;
  scout::SessionOptions options_;
  size_t budget_ = 0;
  // unique_ptrs keep addresses stable across moves (the prefetcher holds a
  // pointer to the pool).
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<scout::Prefetcher> prefetcher_;
  /// Non-null iff options_.cache_results (unique_ptr for move stability).
  std::unique_ptr<cache::ResultCache> cache_;
  std::vector<scout::StepRecord> steps_;
  uint64_t total_stall_us_ = 0;
  /// Coverage of the step currently executing (set by CachedRangeStep,
  /// read back by RunStep into the StepRecord).
  double last_cover_fraction_ = 0.0;
  double last_delta_fraction_ = 1.0;
  /// Engine-provided observability hooks (empty for standalone sessions)
  /// and the session.step.* instruments pre-resolved from them — null
  /// pointers record nothing (obs::Add/Record tolerate null).
  SessionObs obs_;
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_pages_missed_ = nullptr;
  obs::Counter* m_pages_hit_ = nullptr;
  obs::Histogram* m_latency_us_ = nullptr;
  obs::Histogram* m_stall_us_ = nullptr;
  obs::Histogram* m_prefetch_us_ = nullptr;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_SESSION_H_
