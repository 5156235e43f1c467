#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>

#include "cache/delta_planner.h"
#include "common/stats.h"
#include "exec/parallel_executor.h"

namespace neurodb {
namespace engine {

using geom::Aabb;
using geom::ElementId;

namespace {

// Runs fn(backend) for every backend at once: one exec::ParallelExecutor
// lane per backend, on a pool of min(hardware threads, backends) threads
// started for this call. A pool worker (CompactAsync) runs the lanes
// inline in registration order, the nesting rule of exec::ThreadPool. Every
// lane runs, and the first failure in registration order is returned.
// Builds share no mutable state: each backend writes only its own stores,
// and every layout is the same for any lane count.
Status ForEachBackendConcurrently(
    const std::vector<std::unique_ptr<SpatialBackend>>& backends,
    const std::function<Status(SpatialBackend&)>& fn) {
  const size_t n = backends.size();
  const size_t threads = std::min(exec::HardwareThreads(), n);
  std::unique_ptr<exec::ThreadPool> pool;
  if (threads > 1 && !exec::ThreadPool::InWorker()) {
    pool = std::make_unique<exec::ThreadPool>(threads);
  }
  return exec::ParallelExecutor(pool.get())
      .Run(exec::PartitionLanes(n, n), [&](const exec::LaneRange& lane) {
        return fn(*backends[lane.begin]);
      });
}

}  // namespace

Status EngineOptions::Validate() const {
  if (pool_pages == 0) {
    return Status::InvalidArgument("EngineOptions: pool_pages must be > 0");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("EngineOptions: num_threads must be > 0");
  }
  if (session.pool_pages == 0) {
    return Status::InvalidArgument(
        "EngineOptions: session.pool_pages must be > 0");
  }
  if (retained_versions == 0) {
    return Status::InvalidArgument(
        "EngineOptions: retained_versions must be > 0");
  }
  if (slow_query_us > 0 && metrics == MetricsMode::kOff) {
    return Status::InvalidArgument(
        "EngineOptions: slow_query_us requires metrics == kOn");
  }
  if (slow_query_us > 0 && slow_log_entries == 0) {
    return Status::InvalidArgument(
        "EngineOptions: slow_query_us requires slow_log_entries > 0");
  }
  NEURODB_RETURN_NOT_OK(flat.Validate());
  NEURODB_RETURN_NOT_OK(grid.Validate());
  NEURODB_RETURN_NOT_OK(sharded.Validate());
  NEURODB_RETURN_NOT_OK(durability.Validate());
  return rtree.Validate();
}

QueryEngine::QueryEngine(EngineOptions options)
    : options_(std::move(options)), live_(options_.retained_versions) {
  auto flat = std::make_unique<FlatBackend>(options_.flat);
  auto rtree = std::make_unique<PagedRTreeBackend>(options_.rtree);
  auto grid = std::make_unique<GridBackend>(options_.grid);
  auto sharded = std::make_unique<ShardedBackend>(options_.sharded);
  flat_ = flat.get();
  rtree_ = rtree.get();
  grid_ = grid.get();
  sharded_ = sharded.get();
  backends_.push_back(std::move(flat));
  backends_.push_back(std::move(rtree));
  backends_.push_back(std::move(grid));
  backends_.push_back(std::move(sharded));
  recent_group_sizes_.fill(
      std::max<size_t>(1, options_.durability.group_max_batches));

  if (options_.metrics == MetricsMode::kOn) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    InitMetrics();
    if (options_.slow_query_us > 0 && options_.slow_log_entries > 0) {
      slow_log_ = std::make_unique<obs::SlowQueryLog>(
          options_.slow_log_entries, options_.slow_query_us);
    }
  }
}

void QueryEngine::InitMetrics() {
  obs::MetricsRegistry* m = metrics_.get();
  em_.range.count = m->counter("engine.query.range.count");
  em_.range.results = m->counter("engine.query.range.results");
  em_.range.pages_read = m->counter("engine.query.range.pages_read");
  em_.range.latency_us = m->histogram("engine.query.range.latency_us");
  em_.knn.count = m->counter("engine.query.knn.count");
  em_.knn.results = m->counter("engine.query.knn.results");
  em_.knn.pages_read = m->counter("engine.query.knn.pages_read");
  em_.knn.latency_us = m->histogram("engine.query.knn.latency_us");
  em_.knn_reasks = m->counter("engine.query.knn.reasks");
  em_.join_count = m->counter("engine.query.join.count");
  em_.join_pairs = m->counter("engine.query.join.pairs");
  em_.join_latency_us = m->histogram("engine.query.join.latency_us");
  em_.batch_count = m->counter("engine.batch.count");
  em_.batch_queries = m->counter("engine.batch.queries");
  em_.batch_lanes = m->counter("engine.batch.lanes");
  em_.batch_latency_us = m->histogram("engine.batch.latency_us");
  em_.batch_lane_time_us = m->histogram("engine.batch.lane_time_us");
  em_.update_batches = m->counter("engine.update.batches");
  em_.update_ops = m->counter("engine.update.ops");
  em_.update_invalidated_boxes = m->counter("engine.update.invalidated_boxes");
  em_.update_latency_us = m->histogram("engine.update.latency_us");
  em_.compact_count = m->counter("engine.compact.count");
  em_.compact_latency_us = m->histogram("engine.compact.latency_us");
  em_.checkpoint_count = m->counter("engine.checkpoint.count");
  em_.checkpoint_latency_us = m->histogram("engine.checkpoint.latency_us");
  // Background-checkpoint I/O attributed to its own instrument — a query
  // or commit running concurrently must not absorb the rewrite's bytes.
  em_.checkpoint_bytes_written = m->counter("engine.checkpoint.bytes_written");
  em_.checkpoint_fsyncs = m->counter("engine.checkpoint.fsyncs");
  em_.wal_fsync = m->counter("wal.fsync");
  em_.commit_group_size = m->histogram("engine.commit.group_size");
  em_.commit_group_wait_us = m->histogram("engine.commit.group_wait_us");
  em_.commit_group_target = m->gauge("engine.commit.group_target");
  em_.commit_apply_us = m->histogram("engine.commit.apply_us");
  em_.slow_queries = m->counter("engine.slow_queries");
}

QueryEngine::~QueryEngine() {
  // Join the mutation worker first: an in-flight ApplyUpdatesAsync/
  // CompactAsync still touches backends, the warm pools and the WAL.
  // Then the lane pool (sharded_ holds a raw pointer into it).
  mutation_pool_.reset();
  thread_pool_.reset();
}

exec::ThreadPool* QueryEngine::MutationPool() {
  std::call_once(mutation_pool_once_, [this] {
    mutation_pool_ = std::make_unique<exec::ThreadPool>(1);
  });
  return mutation_pool_.get();
}

Status QueryEngine::RegisterBackend(std::unique_ptr<SpatialBackend> backend) {
  if (backend == nullptr) {
    return Status::InvalidArgument("QueryEngine: null backend");
  }
  if (loaded_) {
    return Status::InvalidArgument(
        "QueryEngine: backends must be registered before LoadCircuit");
  }
  for (const auto& existing : backends_) {
    if (std::string(existing->name()) == backend->name()) {
      return Status::AlreadyExists(std::string("QueryEngine: backend '") +
                                   backend->name() + "' already registered");
    }
  }
  backends_.push_back(std::move(backend));
  return Status::OK();
}

Status QueryEngine::LoadCircuit(const neuro::Circuit& circuit) {
  if (loaded_) {
    return Status::AlreadyExists("QueryEngine: circuit already loaded");
  }
  NEURODB_RETURN_NOT_OK(options_.Validate());
  NEURODB_RETURN_NOT_OK(circuit.Validate());

  neuro::SegmentDataset all =
      circuit.FlattenSegments(neuro::NeuriteFilter::kAll);
  if (all.empty()) {
    return Status::InvalidArgument("QueryEngine: circuit has no segments");
  }
  resolver_.AddDataset(all);

  // Join inputs for synapse discovery.
  neuro::SegmentDataset axons =
      circuit.FlattenSegments(neuro::NeuriteFilter::kAxons);
  neuro::SegmentDataset dendrites =
      circuit.FlattenSegments(neuro::NeuriteFilter::kDendrites);
  axons_ = touch::JoinInput::FromSegments(std::move(axons.segments),
                                          std::move(axons.ids));
  dendrites_ = touch::JoinInput::FromSegments(std::move(dendrites.segments),
                                              std::move(dendrites.ids));

  return FinishLoad(all.Elements());
}

Status QueryEngine::LoadElements(geom::ElementVec elements) {
  if (loaded_) {
    return Status::AlreadyExists("QueryEngine: circuit already loaded");
  }
  NEURODB_RETURN_NOT_OK(options_.Validate());
  // An empty set is a valid starting point: the engine is populated purely
  // through ApplyUpdates (every backend builds with an empty base).
  return FinishLoad(std::move(elements));
}

Status QueryEngine::FinishLoad(geom::ElementVec elements) {
  // Element bounds must be finite: every packer sorts by box center, and a
  // NaN key breaks std::sort's ordering contract.
  for (const auto& e : elements) {
    if (!geom::IsFiniteBox(e.bounds)) {
      return Status::InvalidArgument("QueryEngine: element " +
                                     std::to_string(e.id) +
                                     " has a non-finite bound");
    }
  }
  // Durable engines initialize their data directory before any backend
  // builds: disk-backed stores land inside it. Open() arrives here with
  // durability_ already attached to the existing directory.
  if (options_.durability.enabled() && durability_ == nullptr) {
    auto dm = DurabilityManager::Create(options_.durability);
    NEURODB_RETURN_NOT_OK(dm.status());
    durability_ = std::move(*dm);
  }
  if (durability_ != nullptr && options_.durability.disk_backends) {
    for (auto& backend : backends_) {
      NEURODB_RETURN_NOT_OK(
          backend->AttachStores(durability_->BackendStoreFactory()));
    }
  }
  // WAL-before-build: the birth dataset becomes durable before any backend
  // (or the initial checkpoint below) depends on it. The checkpoint
  // truncates the record away, so only an engine that crashes before its
  // first checkpoint — notably one created *empty* and populated through
  // updates — ever replays it.
  if (durability_ != nullptr && !recovering_) {
    NEURODB_RETURN_NOT_OK(durability_->LogLoad(0, elements));
  }

  // The LiveSet keeps the one id-sorted copy. A load already in id order
  // (every LoadCircuit, and Open over an id-ordered base.ndb) is adopted
  // after the builds; any other is sorted into a copy first. Duplicate ids
  // fail the load before any backend builds.
  NEURODB_ASSIGN_OR_RETURN(const bool ascending,
                           LiveSet::AscendingById(elements));
  geom::ElementVec by_id;
  if (!ascending) {
    NEURODB_ASSIGN_OR_RETURN(by_id, LiveSet::SortById(elements));
  }
  domain_ = Aabb();
  for (const auto& e : elements) domain_.Extend(e.bounds);

  // Backends build from the caller's order (the packers break ties by
  // input position, so the id-sorted copy would move page layouts), all at
  // once.
  NEURODB_RETURN_NOT_OK(ForEachBackendConcurrently(
      backends_, [&elements](SpatialBackend& backend) {
        return backend.Build(elements);
      }));
  for (auto& backend : backends_) backend->AttachLiveSet(&live_);
  // Only the id-sorted copy stays.
  if (ascending) {
    by_id = std::move(elements);
  } else {
    elements = geom::ElementVec();
  }
  live_.Reset(std::make_shared<const geom::ElementVec>(std::move(by_id)), 0);

  // Worker pool for batch lanes and shard fan-out.
  if (options_.num_threads > 1) {
    thread_pool_ = std::make_unique<exec::ThreadPool>(options_.num_threads);
    sharded_->set_thread_pool(thread_pool_.get());
  }

  // Persistent warm-path state: one pool set per backend and the result
  // cache behind kDelta. The cache requires the exact FLAT configuration:
  // with rescue=false a kFlat delta answer could be incomplete, and one
  // such insert would poison delta answers for every backend (the cache is
  // backend-agnostic) — so the approximate configuration disables it,
  // exactly as Session::Open does for session caches.
  warm_pools_ = MakePools();
  result_cache_ = std::make_unique<cache::ResultCache>(
      EffectiveResultCacheBoxes());

  // Per-backend counters (now that RegisterBackend is closed): resolved
  // once, parallel to backends_, recorded by ExecuteOn/ExecuteKnnOn.
  if (metrics_ != nullptr) {
    backend_metrics_.clear();
    backend_metrics_.reserve(backends_.size());
    for (const auto& backend : backends_) {
      const std::string prefix = std::string("backend.") + backend->name();
      BackendMetrics bm;
      bm.queries = metrics_->counter(prefix + ".queries");
      bm.pages_read = metrics_->counter(prefix + ".pages_read");
      bm.results = metrics_->counter(prefix + ".results");
      backend_metrics_.push_back(bm);
    }
  }

  loaded_ = true;

  // A freshly loaded durable engine is immediately recoverable: base.ndb
  // holds the load set and the WAL is empty. Recovery skips this (its base
  // is already on disk; replay still has to run against it).
  if (durability_ != nullptr && !recovering_) {
    NEURODB_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Status QueryEngine::ValidateBatchLocked(
    std::span<const UpdateRequest> updates,
    std::unordered_map<geom::ElementId, bool>* overlay) const {
  // Validate the whole batch against the live id set before touching any
  // backend — the batch applies atomically or not at all. `local` tracks
  // intra-batch dependencies (insert-then-move of one id is fine) and is
  // merged into `overlay` only on success, so a rejected batch in a commit
  // group leaves no trace for the batches validated after it.
  std::unordered_map<geom::ElementId, bool> local;  // id -> alive after ops
  auto alive = [&](geom::ElementId id) {
    auto it = local.find(id);
    if (it != local.end()) return it->second;
    it = overlay->find(id);
    if (it != overlay->end()) return it->second;
    return live_.Lookup(id).has_value();
  };
  for (const UpdateRequest& update : updates) {
    switch (update.kind) {
      case UpdateKind::kInsert:
        if (!update.bounds.IsValid() || !geom::IsFiniteBox(update.bounds)) {
          return Status::InvalidArgument(
              "QueryEngine::ApplyUpdates: insert with invalid bounds");
        }
        if (alive(update.id)) {
          return Status::AlreadyExists(
              "QueryEngine::ApplyUpdates: insert of a live id");
        }
        local[update.id] = true;
        break;
      case UpdateKind::kErase:
        if (!alive(update.id)) {
          return Status::NotFound(
              "QueryEngine::ApplyUpdates: erase of an unknown id");
        }
        local[update.id] = false;
        break;
      case UpdateKind::kMove:
        if (!update.bounds.IsValid() || !geom::IsFiniteBox(update.bounds)) {
          return Status::InvalidArgument(
              "QueryEngine::ApplyUpdates: move with invalid bounds");
        }
        if (!alive(update.id)) {
          return Status::NotFound(
              "QueryEngine::ApplyUpdates: move of an unknown id");
        }
        local[update.id] = true;
        break;
    }
  }
  for (const auto& [id, live] : local) (*overlay)[id] = live;
  return Status::OK();
}

Result<UpdateReport> QueryEngine::ApplyValidatedLocked(
    std::span<const UpdateRequest> updates, storage::Epoch next) {
  // The apply → publish layer of the write path, per batch, on every path
  // that applies one (ungrouped, group leader, WAL replay).
  Timer wall;
  // The batch applies once, to the LiveSet's pending delta (invisible to
  // readers). Each op's dirty region takes the *old* bounds before it
  // applies, so an insert-then-move of one id dirties both positions.
  UpdateReport report;
  for (const UpdateRequest& update : updates) {
    if (update.kind != UpdateKind::kInsert) {
      report.dirty.Extend(*live_.Lookup(update.id));  // validated live
    }
    if (update.kind != UpdateKind::kErase) report.dirty.Extend(update.bounds);
    live_.Apply(update);
    ++report.applied;
  }
  committed_since_load_ = true;

  // ONE immutable version at the new epoch, then the epoch: readers that
  // pinned `next - 1` keep their version, readers arriving after the epoch
  // store below see the new one.
  live_.Publish(next);
  epoch_.store(next, std::memory_order_release);

  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    uint64_t invalidated0 = result_cache_->stats().invalidated_boxes;
    result_cache_->AdvanceEpoch(next, report.dirty);
    report.invalidated_boxes =
        result_cache_->stats().invalidated_boxes - invalidated0;
  }
  update_log_.Append(next, report.dirty);
  report.epoch = next;

  obs::Bump(em_.update_batches);
  obs::Add(em_.update_ops, report.applied);
  obs::Add(em_.update_invalidated_boxes, report.invalidated_boxes);
  MaybeScheduleCheckpointLocked();
  obs::Record(em_.commit_apply_us, wall.ElapsedNanos() / 1000);
  return report;
}

Result<UpdateReport> QueryEngine::ApplyUpdatesLocked(
    std::span<const UpdateRequest> updates) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("ApplyUpdates"));
  if (updates.empty()) {
    return Status::InvalidArgument("QueryEngine::ApplyUpdates: empty batch");
  }

  std::unordered_map<geom::ElementId, bool> overlay;
  NEURODB_RETURN_NOT_OK(ValidateBatchLocked(updates, &overlay));

  const storage::Epoch next = epoch_.load(std::memory_order_relaxed) + 1;

  // The batch becomes crash-proof BEFORE the live set mutates: the WAL
  // record (stamped with the epoch this batch will create) is written —
  // and, except under SyncPolicy::kNone, fsync'd — here, so an
  // acknowledged batch survives any later crash. If the append fails,
  // nothing has been touched and the batch is cleanly rejected. Replay
  // routes the same batches back through this method with recovering_
  // set — they are already on disk.
  if (durability_ != nullptr && !recovering_) {
    const bool sync = options_.durability.sync != SyncPolicy::kNone;
    NEURODB_RETURN_NOT_OK(durability_->LogUpdates(next, updates, sync));
    if (sync) {
      obs::Bump(em_.wal_fsync);
      obs::Record(em_.commit_group_size, 1);
    }
  }

  return ApplyValidatedLocked(updates, next);
}

void QueryEngine::CommitGroupLocked(std::unique_lock<std::mutex>&) {
  const size_t most = std::max<size_t>(1, options_.durability.group_max_batches);
  // The hold target: the largest recent group (see recent_group_sizes_).
  auto target = [this] {
    return *std::max_element(recent_group_sizes_.begin(),
                             recent_group_sizes_.end());
  };
  const size_t want = target();
  // Publish a member's completion: `done` flips under group_mu_ and wakes
  // the parked owner. The owner may return (destroying the PendingCommit)
  // the moment this releases group_mu_ — never touch `pending` after.
  auto complete = [this](PendingCommit* pending) {
    {
      std::lock_guard<std::mutex> queue_lock(group_mu_);
      pending->done = true;
    }
    group_cv_.notify_all();
  };
  std::vector<PendingCommit*> group;
  uint64_t held_us = 0;
  {
    std::unique_lock<std::mutex> queue_lock(group_mu_);
    // Nothing queued: this leader's own commit was already drained by the
    // previous one, and there is no group to hold open.
    if (group_queue_.empty()) return;
    if (group_queue_.size() < want && options_.durability.group_hold_us > 0) {
      // Hold the group open briefly: every writer that queues up inside
      // the window rides this fsync instead of paying its own. The wait
      // happens with commit_mu_ held — followers enqueue and notify
      // without it (they only block on commit_mu_ *after* queueing).
      Timer hold;
      group_cv_.wait_for(
          queue_lock,
          std::chrono::microseconds(options_.durability.group_hold_us),
          [&] { return group_queue_.size() >= want; });
      held_us = hold.ElapsedNanos() / 1000;
    }
    while (!group_queue_.empty() && group.size() < most) {
      group.push_back(group_queue_.front());
      group_queue_.pop_front();
    }
  }
  recent_group_sizes_[next_group_slot_] = group.size();
  next_group_slot_ = (next_group_slot_ + 1) % kRecentGroups;
  obs::Set(em_.commit_group_target, target());

  // The gate check is batch-independent, so one answer serves the whole
  // group.
  Status gate = RequireLoaded("ApplyUpdates");
  if (!gate.ok()) {
    for (PendingCommit* pending : group) {
      pending->result = gate;
      complete(pending);
    }
    return;
  }

  // Validate in arrival order against the cumulative overlay: batch k may
  // depend on batch k-1's effects (its inserts are "alive" here), exactly
  // as if the batches had committed back to back. Accepted batches take
  // consecutive epochs; rejected ones answer immediately and leave the
  // overlay untouched.
  const storage::Epoch base_epoch = epoch_.load(std::memory_order_relaxed);
  std::unordered_map<geom::ElementId, bool> overlay;
  std::vector<PendingCommit*> accepted;
  std::vector<storage::WriteAheadLog::PendingRecord> records;
  for (PendingCommit* pending : group) {
    Status valid =
        pending->updates.empty()
            ? Status::InvalidArgument(
                  "QueryEngine::ApplyUpdates: empty batch")
            : ValidateBatchLocked(pending->updates, &overlay);
    if (!valid.ok()) {
      pending->result = valid;
      complete(pending);
      continue;
    }
    const storage::Epoch epoch =
        base_epoch + 1 + static_cast<storage::Epoch>(accepted.size());
    records.push_back({epoch, EncodeUpdateBatch(pending->updates)});
    accepted.push_back(pending);
  }
  if (accepted.empty()) return;

  // The whole group becomes crash-proof in ONE WAL write + ONE fsync —
  // the amortization that is the point of kGroup. On failure nothing was
  // appended and nothing applies: every accepted batch is rejected with
  // the append error, exactly like a failed kPerBatch append.
  Status logged = durability_->LogUpdateGroup(records);
  if (!logged.ok()) {
    for (PendingCommit* pending : accepted) {
      pending->result = logged;
      complete(pending);
    }
    return;
  }
  obs::Bump(em_.wal_fsync);
  obs::Record(em_.commit_group_size, accepted.size());
  obs::Record(em_.commit_group_wait_us, held_us);

  // Apply in epoch order.
  for (size_t i = 0; i < accepted.size(); ++i) {
    PendingCommit* pending = accepted[i];
    pending->result = ApplyValidatedLocked(
        pending->updates, base_epoch + 1 + static_cast<storage::Epoch>(i));
    complete(pending);
  }
}

Result<UpdateReport> QueryEngine::ApplyUpdates(
    std::span<const UpdateRequest> updates) {
  // Commit latency as the caller experiences it: the clock starts before
  // the commit lock, so queueing (and, under kGroup, riding a group) is
  // part of it.
  Timer wall;

  const bool grouped = durability_ != nullptr && !recovering_ &&
                       options_.durability.sync == SyncPolicy::kGroup;
  if (!grouped) {
    // One committing batch at a time; readers are NOT excluded — they
    // answer at their pinned epoch while this batch publishes the next.
    std::lock_guard<std::mutex> commit(commit_mu_);
    Result<UpdateReport> result = ApplyUpdatesLocked(updates);
    if (result.ok()) {
      obs::Record(em_.update_latency_us, wall.ElapsedNanos() / 1000);
    }
    return result;
  }

  // Group commit: queue first, then try for the commit lock. Whoever
  // wins leads the group — drains the queue (this entry included, or a
  // later leader's turn picks it up), appends every accepted batch in one
  // WAL write + one fsync, applies in order, and fills each entry's
  // result. Followers park on group_cv_, NEVER on the commit lock:
  // `done` is published under group_mu_, so an acknowledged writer
  // returns (and can re-submit into the next group) without convoying
  // behind the next leader — the property that lets every writer of the
  // last group re-queue in time for the next one. The leader's hold ends
  // once the learned target has queued; see CommitGroupLocked.
  NEURODB_RETURN_NOT_OK(RequireLoaded("ApplyUpdates"));
  if (updates.empty()) {
    return Status::InvalidArgument("QueryEngine::ApplyUpdates: empty batch");
  }
  PendingCommit pending;
  pending.updates = updates;
  {
    std::lock_guard<std::mutex> queue_lock(group_mu_);
    group_queue_.push_back(&pending);
  }
  group_cv_.notify_all();
  for (;;) {
    {
      std::unique_lock<std::mutex> queue_lock(group_mu_);
      if (pending.done) break;
    }
    std::unique_lock<std::mutex> commit(commit_mu_, std::try_to_lock);
    if (commit.owns_lock()) {
      CommitGroupLocked(commit);
      continue;  // re-check done — a leader may not have drained us yet
    }
    // Someone else leads. The bounded wait covers the lost-wakeup window
    // between the done-check above and parking; on timeout the loop just
    // retries leadership.
    std::unique_lock<std::mutex> queue_lock(group_mu_);
    group_cv_.wait_for(queue_lock, std::chrono::microseconds(200),
                       [&] { return pending.done; });
  }
  if (pending.result.ok()) {
    obs::Record(em_.update_latency_us, wall.ElapsedNanos() / 1000);
  }
  return std::move(pending.result);
}

std::future<Result<UpdateReport>> QueryEngine::ApplyUpdatesAsync(
    std::vector<UpdateRequest> updates) {
  return MutationPool()->Submit(
      [this, batch = std::move(updates)]() -> Result<UpdateReport> {
        return ApplyUpdates(batch);
      });
}

Status QueryEngine::Compact() {
  Timer wall;
  {
    std::lock_guard<std::mutex> commit(commit_mu_);
    NEURODB_RETURN_NOT_OK(RequireLoaded("Compact"));
    const storage::Epoch next = epoch_.load(std::memory_order_relaxed) + 1;
    // The rebuild's epoch advance must stay replayable even though its
    // checkpoint now runs *after* the commit lock drops (and may never
    // complete): log an op-less epoch bump first. If even that single
    // append fails, abort before anything mutates.
    if (durability_ != nullptr && !recovering_) {
      NEURODB_RETURN_NOT_OK(durability_->LogEpochBump(next));
    }
    {
      // Exclude readers for the rebuild: folding the delta replaces page
      // layouts and retires every retained version — the one transition a
      // pinned snapshot cannot survive. Queries and session steps hold
      // this lock shared, so they are either fully before or fully after.
      std::unique_lock<std::shared_mutex> exclusive(compact_mu_);
      if (live_.DeltaSize() > 0) {
        // The next base generation, computed once; every backend rebuilds
        // over it, all at once.
        auto next_base =
            std::make_shared<const geom::ElementVec>(live_.NextBase());
        Status rebuilt = ForEachBackendConcurrently(
            backends_, [&next_base](SpatialBackend& backend) -> Status {
              Status status = backend.Rebuild(*next_base);
              if (status.ok()) return status;
              return Status::Internal(
                  std::string("QueryEngine::Compact: backend '") +
                  backend.name() +
                  "' failed mid-rebuild, engine state is inconsistent — "
                  "discard this engine (" +
                  status.ToString() + ")");
            });
        if (!rebuilt.ok()) {
          // The other backends index the new generation, this one a
          // half-built layout: no answer can be trusted any more.
          corrupted_.store(true, std::memory_order_release);
          return rebuilt;
        }
        live_.Reset(std::move(next_base), next);
      } else {
        live_.Publish(next);
      }
      // The physical page layout is new; every warm pool caches the old
      // one. (Session pools re-fetch lazily through the store-epoch
      // check.)
      for (storage::PoolSet& pools : warm_pools_) {
        warm_pages_dropped_ += pools.EvictAll();
      }
      epoch_.store(next, std::memory_order_release);
    }
    // Results are unchanged, so cached result boxes stay valid — only the
    // epoch stamp advances (the empty dirty box invalidates nothing).
    {
      std::lock_guard<std::mutex> cache_lock(cache_mu_);
      result_cache_->AdvanceEpoch(next, Aabb());
    }
    update_log_.Append(next, Aabb());
  }
  // Compaction is the durable checkpoint: base.ndb becomes the compacted
  // snapshot at the new epoch and the covered WAL prefix drops. The
  // commit lock is released first — the streaming rewrite lets writers
  // keep committing (their records land past the cut).
  if (durability_ != nullptr) {
    NEURODB_RETURN_NOT_OK(CheckpointStreaming());
  }
  obs::Bump(em_.compact_count);
  obs::Record(em_.compact_latency_us, wall.ElapsedNanos() / 1000);
  return Status::OK();
}

std::future<Status> QueryEngine::CompactAsync() {
  return MutationPool()->Submit([this] { return Compact(); });
}

Status QueryEngine::Checkpoint() { return CheckpointStreaming(); }

std::future<Status> QueryEngine::CheckpointAsync() {
  return MutationPool()->Submit([this] { return CheckpointStreaming(); });
}

void QueryEngine::MaybeScheduleCheckpointLocked() {
  if (durability_ == nullptr || recovering_) return;
  const uint64_t threshold = options_.durability.checkpoint_wal_bytes;
  if (threshold == 0) return;
  if (durability_->wal().end_offset() < threshold) return;
  // At most one size-triggered checkpoint queued or running: the flag
  // clears when it finishes, and the next commit past the threshold
  // re-arms it.
  if (checkpoint_pending_.exchange(true, std::memory_order_acq_rel)) return;
  MutationPool()->Submit([this] {
    Status status = CheckpointStreaming();
    checkpoint_pending_.store(false, std::memory_order_release);
    return status;
  });
}

Status QueryEngine::CheckpointStreaming() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "QueryEngine::Checkpoint: engine is not durable (set "
        "EngineOptions::durability.dir or use Open)");
  }
  // One checkpoint at a time, and outermost: a concurrent Compact blocks
  // here holding nothing, never inside commit_mu_.
  std::lock_guard<std::mutex> checkpoint(checkpoint_mu_);
  Timer wall;
  const storage::IoStats io_before = durability_->io();

  // Phase 1 — pin, under a brief commit_mu_ hold: the LiveSet's base
  // generation and newest delta version (immutable; together they ARE the
  // live set at the engine epoch) and the WAL cut point (every record at
  // or before it has epoch <= pinned). compact_mu_ is taken shared
  // *before* commit_mu_ drops so no Compact rebuilds under the stream.
  std::shared_lock<std::shared_mutex> no_compact(compact_mu_, std::defer_lock);
  storage::Epoch pinned = 0;
  std::shared_ptr<const geom::ElementVec> base;
  DeltaSnapshot snap;
  uint64_t wal_cut = 0;
  {
    std::lock_guard<std::mutex> commit(commit_mu_);
    NEURODB_RETURN_NOT_OK(RequireLoaded("Checkpoint"));
    no_compact.lock();
    pinned = epoch_.load(std::memory_order_relaxed);
    base = live_.base();
    snap = live_.Latest();
    wal_cut = durability_->wal().end_offset();
  }

  // Phase 2 — stream, with readers and writers running: merge the
  // immutable base list with the pinned delta's inserts in ascending id
  // order, skipping dead base ids, one page chunk at a time. Nothing here
  // touches engine state later commits mutate; base.ndb staging is
  // copy-on-write, so abandoning on error leaves the committed base
  // intact.
  {
    auto stream = durability_->BeginCheckpoint();
    if (!stream.ok()) {
      no_compact.unlock();
      return stream.status();
    }
    Status streamed = snap.delta->ForEachLive(
        *base, [&](const geom::SpatialElement& element) {
          return (*stream)->Append(element);
        });
    if (streamed.ok()) streamed = (*stream)->Finish();
    no_compact.unlock();
    if (!streamed.ok()) return streamed;
  }

  // Phase 3 — swap, back under commit_mu_ (and only now: taking it while
  // still holding compact_mu_ shared would deadlock against a Compact
  // holding commit_mu_ and waiting for compact_mu_ exclusive): commit the
  // staged base at the pinned epoch, drop the covered WAL prefix, and
  // flush the backend page files so a clean shutdown's directory is fully
  // consistent.
  {
    std::lock_guard<std::mutex> commit(commit_mu_);
    NEURODB_RETURN_NOT_OK(durability_->CommitCheckpoint(pinned, wal_cut));
    std::unique_lock<std::shared_mutex> exclusive(compact_mu_);
    for (auto& backend : backends_) {
      for (storage::PageStore* store : backend->Stores()) {
        NEURODB_RETURN_NOT_OK(store->Flush());
      }
    }
  }

  const storage::IoStats io_after = durability_->io();
  obs::Add(em_.checkpoint_bytes_written,
           io_after.bytes_written - io_before.bytes_written);
  obs::Add(em_.checkpoint_fsyncs, io_after.fsyncs - io_before.fsyncs);
  obs::Bump(em_.checkpoint_count);
  obs::Record(em_.checkpoint_latency_us, wall.ElapsedNanos() / 1000);
  return Status::OK();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Open(
    const std::string& dir, EngineOptions options, RecoveryReport* report) {
  options.durability.dir = dir;
  auto engine = std::make_unique<QueryEngine>(std::move(options));
  NEURODB_RETURN_NOT_OK(engine->Recover(report));
  return engine;
}

Status QueryEngine::ApplyEpochBump(storage::Epoch e) {
  // A replayed kWalKindEpochBump: the previous incarnation's Compact
  // advanced the epoch but its checkpoint never committed. The rebuilt
  // state already holds the right live set (base + replayed batches);
  // only the epoch sequence needs the advance so later records stay
  // consecutive.
  live_.Publish(e);
  epoch_.store(e, std::memory_order_release);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    result_cache_->AdvanceEpoch(e, Aabb());
  }
  update_log_.Append(e, Aabb());
  return Status::OK();
}

Status QueryEngine::Recover(RecoveryReport* report) {
  NEURODB_RETURN_NOT_OK(options_.Validate());
  auto dm = DurabilityManager::Attach(options_.durability);
  NEURODB_RETURN_NOT_OK(dm.status());
  durability_ = std::move(*dm);

  // The base scan's read window is bounded by the engine's own pool
  // budget: recovery of a dataset far larger than the pool never holds
  // more than the pool would.
  const uint64_t scan_window =
      std::min<uint64_t>(options_.pool_pages, 1024) *
      options_.durability.block_bytes;
  NEURODB_ASSIGN_OR_RETURN(geom::ElementVec base,
                           durability_->LoadBase(scan_window));
  const storage::Epoch ckpt = durability_->checkpoint_epoch();

  // An engine that crashed before its first checkpoint has an empty
  // base.ndb — its birth dataset lives in the WAL's load record instead
  // (FinishLoad logs it before building). Pre-scan for it so the backends
  // build over the right base; the main replay below then skips it.
  if (base.empty() && ckpt == 0) {
    storage::WriteAheadLog::ReplayStats scan;
    NEURODB_RETURN_NOT_OK(durability_->Replay(
        [](storage::Epoch, const std::vector<UpdateRequest>&) {
          return Status::OK();
        },
        &scan,
        [&base](storage::Epoch, geom::ElementVec elements) {
          base = std::move(elements);
          return Status::OK();
        }));
  }
  const size_t base_elements = base.size();

  // Rebuild every backend over the checkpointed snapshot through the
  // normal load path; recovering_ suppresses FinishLoad's initial
  // checkpoint and ApplyUpdates' re-logging below.
  recovering_ = true;
  Status loaded = LoadElements(std::move(base));
  if (!loaded.ok()) {
    recovering_ = false;
    return loaded;
  }

  // Resume at the persisted epoch: recovery must never hand out an epoch
  // the previous incarnation already stamped onto results. The LiveSet's
  // newest version carries it too, so default-epoch reads report it.
  if (ckpt > epoch()) {
    live_.Publish(ckpt);
    epoch_.store(ckpt, std::memory_order_release);
  }
  result_cache_->AdvanceEpoch(epoch(), Aabb());

  // Replay the WAL tail through ApplyUpdates. Records at or below the
  // checkpoint epoch are already folded into base.ndb (a crash between a
  // checkpoint's base commit and its WAL truncate leaves them behind);
  // past that, epochs must run consecutively or the log is damaged in a
  // way a torn tail cannot explain. A load record was consumed by the
  // pre-scan above (or is covered by a later checkpoint) — skip it. An
  // epoch bump advances the epoch without ops (a Compact whose checkpoint
  // never committed) and does not count as a replayed batch.
  size_t batches = 0;
  storage::WriteAheadLog::ReplayStats stats;
  Status replayed = durability_->Replay(
      [&](storage::Epoch e, const std::vector<UpdateRequest>& ops) -> Status {
        if (e <= ckpt) return Status::OK();
        if (e != epoch() + 1) {
          return Status::Corruption(
              "QueryEngine::Open: WAL record at epoch " + std::to_string(e) +
              " does not follow engine epoch " + std::to_string(epoch()));
        }
        NEURODB_RETURN_NOT_OK(ApplyUpdates(ops).status());
        ++batches;
        return Status::OK();
      },
      &stats,
      [](storage::Epoch, geom::ElementVec) { return Status::OK(); },
      [&](storage::Epoch e) -> Status {
        if (e <= ckpt) return Status::OK();
        if (e != epoch() + 1) {
          return Status::Corruption(
              "QueryEngine::Open: WAL epoch bump at epoch " +
              std::to_string(e) + " does not follow engine epoch " +
              std::to_string(epoch()));
        }
        return ApplyEpochBump(e);
      });
  recovering_ = false;
  NEURODB_RETURN_NOT_OK(replayed);

  // Drop a torn final record for good: the next append lands cleanly after
  // the last intact one.
  NEURODB_RETURN_NOT_OK(durability_->TruncateTornTail());

  if (report != nullptr) {
    report->checkpoint_epoch = ckpt;
    report->base_elements = base_elements;
    report->replayed_batches = batches;
    report->torn_tail = stats.torn_tail;
    report->dropped_bytes = stats.dropped_bytes;
  }
  return Status::OK();
}

storage::IoStats QueryEngine::IoTotals() const {
  storage::IoStats total;
  for (const auto& backend : backends_) total += backend->IoTotals();
  if (durability_ != nullptr) total += durability_->io();
  return total;
}

obs::MetricsSnapshot QueryEngine::MetricsSnapshot() {
  if (metrics_ == nullptr) return obs::MetricsSnapshot{};
  obs::MetricsRegistry* m = metrics_.get();
  if (loaded_) {
    // Sampled gauges: lower layers are not instrumented on their hot paths
    // (a query's pool fetch costs zero extra when nobody looks) — their
    // cumulative state is read here instead: the LiveSet's newest
    // published version, the result cache under its writers' lock, and the
    // pools, which latch themselves.
    m->gauge("engine.epoch")->Set(epoch());
    m->gauge("engine.backends")->Set(backends_.size());
    m->gauge("engine.live_elements")->Set(NumSegments());
    m->gauge("engine.delta_records")->Set(DeltaSize());
    uint64_t pools = 0, pages_cached = 0, latch_waits = 0;
    storage::PoolCounters demand;
    for (const storage::PoolSet& set : warm_pools_) {
      pools += set.size();
      pages_cached += set.PagesCached();
      for (size_t i = 0; i < set.size(); ++i) {
        const storage::BufferPoolCounters c = set.pool(i)->Counters();
        demand += c;
        latch_waits += c.latch_waits;
      }
    }
    m->gauge("pool.pools")->Set(pools);
    m->gauge("pool.pages_cached")->Set(pages_cached);
    m->gauge("pool.hits")->Set(demand.hits);
    m->gauge("pool.misses")->Set(demand.misses);
    m->gauge("pool.evictions")->Set(demand.evictions + warm_pages_dropped_);
    m->gauge("pool.latch_waits")->Set(latch_waits);
    {
      std::lock_guard<std::mutex> cache_lock(cache_mu_);
      const cache::CacheStats& cache_stats = result_cache_->stats();
      m->gauge("result_cache.lookups")->Set(cache_stats.lookups);
      m->gauge("result_cache.hits")->Set(cache_stats.hits);
      m->gauge("result_cache.misses")->Set(cache_stats.misses);
      m->gauge("result_cache.insertions")->Set(cache_stats.insertions);
      m->gauge("result_cache.evictions")->Set(cache_stats.evictions);
      m->gauge("result_cache.invalidated_boxes")
          ->Set(cache_stats.invalidated_boxes);
    }
    // Physical I/O: atomic store counters, safe to read anywhere.
    const storage::IoStats io = IoTotals();
    m->gauge("io.bytes_read")->Set(io.bytes_read);
    m->gauge("io.bytes_written")->Set(io.bytes_written);
    m->gauge("io.fsyncs")->Set(io.fsyncs);
    if (durability_ != nullptr) {
      const storage::IoStats wal = durability_->io();
      m->gauge("durability.bytes_read")->Set(wal.bytes_read);
      m->gauge("durability.bytes_written")->Set(wal.bytes_written);
      m->gauge("durability.fsyncs")->Set(wal.fsyncs);
    }
  }
  if (slow_log_ != nullptr) {
    m->gauge("slow_log.retained")->Set(slow_log_->Entries().size());
    m->gauge("slow_log.total")->Set(slow_log_->total_recorded());
  }
  return m->Snapshot();
}

Status QueryEngine::RequireLoaded(const char* op) const {
  if (corrupted_) {
    return Status::Internal(std::string("QueryEngine::") + op +
                            ": engine poisoned by a failed Compact — "
                            "discard this engine");
  }
  if (!loaded_) {
    return Status::InvalidArgument(std::string("QueryEngine::") + op +
                                   ": no circuit loaded");
  }
  return Status::OK();
}

Status QueryEngine::RequireGeometry(const char* op) const {
  if (resolver_.size() == 0) {
    return Status::InvalidArgument(
        std::string("QueryEngine::") + op +
        ": no segment geometry — only LoadCircuit loads it (LoadElements "
        "and Open keep bounds only)");
  }
  return Status::OK();
}

Result<DeltaSnapshot> QueryEngine::PinRead(storage::Epoch read_epoch) const {
  if (read_epoch == storage::kLatestEpoch) return live_.Latest();
  NEURODB_ASSIGN_OR_RETURN(std::shared_ptr<const DeltaIndex> delta,
                           live_.At(read_epoch));
  return DeltaSnapshot{read_epoch, std::move(delta)};
}

std::vector<size_t> QueryEngine::Select(BackendChoice choice) const {
  // The constructor registers the built-in backends first, in
  // BackendChoice order.
  if (choice != BackendChoice::kAll) return {static_cast<size_t>(choice)};
  std::vector<size_t> out(backends_.size());
  for (size_t b = 0; b < out.size(); ++b) out[b] = b;
  return out;
}

scout::SessionOptions QueryEngine::EffectiveSessionOptions() const {
  scout::SessionOptions session_options = options_.session;
  session_options.cost = options_.cost;
  return session_options;
}

size_t QueryEngine::EffectiveResultCacheBoxes() const {
  return options_.flat.rescue ? options_.result_cache_boxes : 0;
}

Status QueryEngine::ValidateRequest(const RangeRequest& request,
                                    const char* op) const {
  if (!request.box.IsValid()) {
    return Status::InvalidArgument(std::string("QueryEngine::") + op +
                                   ": invalid box (lo > hi)");
  }
  return Status::OK();
}

Status QueryEngine::ValidateRequest(const KnnRequest& request,
                                    const char* op) const {
  if (request.k == 0) {
    return Status::InvalidArgument(std::string("QueryEngine::") + op +
                                   ": k must be > 0");
  }
  if (!geom::IsFinitePoint(request.point)) {
    return Status::InvalidArgument(std::string("QueryEngine::") + op +
                                   ": non-finite query point");
  }
  return Status::OK();
}

std::vector<storage::PoolSet> QueryEngine::MakePools() const {
  std::vector<storage::PoolSet> pools;
  pools.reserve(backends_.size());
  for (const auto& backend : backends_) {
    pools.push_back(backend->MakePoolSet(options_.pool_pages));
  }
  return pools;
}

void QueryEngine::AddPoolAndDiskSpans(obs::Trace* trace, int backend_span,
                                      const storage::PoolCounters& pool,
                                      const storage::IoStats& io_delta) {
  // The pool/disk layers are not separately timed (they interleave with
  // index work), so their spans share the backend span's window and carry
  // the counter deltas as tags. Copy the window out first: AddCompleted
  // grows the span vector, invalidating references into it.
  const uint64_t window_start =
      trace->spans()[static_cast<size_t>(backend_span)].start_ns;
  const uint64_t window_duration =
      trace->spans()[static_cast<size_t>(backend_span)].duration_ns;
  const int pool_span = trace->AddCompleted("pool", backend_span,
                                            window_start, window_duration);
  trace->Tag(pool_span, "hits", pool.hits);
  trace->Tag(pool_span, "misses", pool.misses);
  trace->Tag(pool_span, "evictions", pool.evictions);
  if (io_delta.bytes_read != 0 || io_delta.bytes_written != 0 ||
      io_delta.fsyncs != 0) {
    const int disk_span = trace->AddCompleted("disk", pool_span,
                                              window_start, window_duration);
    trace->Tag(disk_span, "bytes_read", io_delta.bytes_read);
    trace->Tag(disk_span, "bytes_written", io_delta.bytes_written);
    trace->Tag(disk_span, "fsyncs", io_delta.fsyncs);
  }
}

Status QueryEngine::ExecuteOn(const RangeRequest& request,
                              ResultVisitor* visitor,
                              std::span<storage::PoolSet> pools,
                              obs::Trace* trace, RangeReport* report) const {
  std::vector<size_t> selected = Select(request.backend);
  const bool parity_check = selected.size() > 1;
  std::vector<std::vector<ElementId>> id_sets;

  // The snapshot pin: resolve the (epoch, delta) pair ONCE, before the
  // first backend runs, so every backend (and the parity check across
  // them) answers the same snapshot even while a concurrent ApplyUpdates
  // publishes the next.
  NEURODB_ASSIGN_OR_RETURN(const DeltaSnapshot pinned,
                           PinRead(request.read_epoch));
  report->epoch = pinned.epoch;

  report->rows.reserve(selected.size());
  for (size_t k = 0; k < selected.size(); ++k) {
    const size_t b = selected[k];
    const SpatialBackend* backend = backends_[b].get();
    storage::PoolSet* pool = &pools[b];

    RangeRow row;
    row.method = backend->name();
    const int backend_span =
        trace != nullptr
            ? trace->Begin(std::string("backend:") + backend->name())
            : -1;
    storage::IoStats io0 = backend->IoTotals();

    Status status;
    if (parity_check) {
      id_sets.emplace_back();
      geom::VectorVisitor ids(&id_sets.back());
      // The primary backend additionally streams to the caller.
      geom::TeeVisitor tee(k == 0 ? visitor : nullptr, &ids);
      status = backend->RangeQueryView(pinned.delta.get(), request.box, pool,
                                       tee, &row.stats);
    } else if (visitor != nullptr) {
      status = backend->RangeQueryView(pinned.delta.get(), request.box, pool,
                                       *visitor, &row.stats);
    } else {
      geom::CountingVisitor count;
      status = backend->RangeQueryView(pinned.delta.get(), request.box, pool,
                                       count, &row.stats);
    }
    NEURODB_RETURN_NOT_OK(status);

    row.stats.time_us = row.stats.pool.ModeledMicros(options_.cost);
    const storage::IoStats io_delta = backend->IoTotals() - io0;
    report->io += io_delta;
    report->pool += row.stats.pool;
    if (!backend_metrics_.empty()) {
      const BackendMetrics& bm = backend_metrics_[b];
      obs::Bump(bm.queries);
      obs::Add(bm.pages_read, row.stats.pages_read);
      obs::Add(bm.results, row.stats.results);
    }
    if (trace != nullptr) {
      trace->Tag(backend_span, "epoch", pinned.epoch);
      trace->Tag(backend_span, "pages_read", row.stats.pages_read);
      trace->Tag(backend_span, "elements_scanned", row.stats.elements_scanned);
      trace->Tag(backend_span, "results", row.stats.results);
      trace->End(backend_span);
      AddPoolAndDiskSpans(trace, backend_span, row.stats.pool, io_delta);
    }
    report->rows.push_back(std::move(row));
  }

  report->results = report->rows.empty() ? 0 : report->rows[0].stats.results;
  report->results_match = true;
  if (parity_check) {
    for (auto& ids : id_sets) std::sort(ids.begin(), ids.end());
    for (size_t k = 1; k < id_sets.size(); ++k) {
      if (id_sets[k] != id_sets[0]) report->results_match = false;
    }
  }
  return Status::OK();
}

Status QueryEngine::ExecuteKnnOn(const KnnRequest& request,
                                 std::span<storage::PoolSet> pools,
                                 obs::Trace* trace, KnnReport* report) const {
  std::vector<size_t> selected = Select(request.backend);
  const bool parity_check = selected.size() > 1;
  NEURODB_ASSIGN_OR_RETURN(const DeltaSnapshot pinned,
                           PinRead(request.read_epoch));
  report->epoch = pinned.epoch;

  report->rows.reserve(selected.size());
  for (size_t k = 0; k < selected.size(); ++k) {
    const size_t b = selected[k];
    const SpatialBackend* backend = backends_[b].get();
    storage::PoolSet* pool = &pools[b];

    RangeRow row;
    row.method = backend->name();
    const int backend_span =
        trace != nullptr
            ? trace->Begin(std::string("backend:") + backend->name())
            : -1;
    storage::IoStats io0 = backend->IoTotals();

    std::vector<geom::KnnHit> hits;
    NEURODB_RETURN_NOT_OK(backend->KnnQueryView(pinned.delta.get(),
                                                request.point, request.k, pool,
                                                &hits, &row.stats));

    row.stats.time_us = row.stats.pool.ModeledMicros(options_.cost);
    const storage::IoStats io_delta = backend->IoTotals() - io0;
    report->io += io_delta;
    report->pool += row.stats.pool;
    if (!backend_metrics_.empty()) {
      const BackendMetrics& bm = backend_metrics_[b];
      obs::Bump(bm.queries);
      obs::Add(bm.pages_read, row.stats.pages_read);
      obs::Add(bm.results, hits.size());
    }
    if (trace != nullptr) {
      trace->Tag(backend_span, "epoch", pinned.epoch);
      trace->Tag(backend_span, "pages_read", row.stats.pages_read);
      trace->Tag(backend_span, "elements_scanned", row.stats.elements_scanned);
      trace->Tag(backend_span, "results", hits.size());
      trace->End(backend_span);
      AddPoolAndDiskSpans(trace, backend_span, row.stats.pool, io_delta);
    }
    report->rows.push_back(std::move(row));

    if (k == 0) {
      report->hits = std::move(hits);
    } else if (parity_check && hits != report->hits) {
      // Hits are fully ordered by (distance, id) in every backend, so a
      // mismatch anywhere — id, distance or cardinality — is a divergence.
      report->results_match = false;
    }
  }
  return Status::OK();
}

std::optional<size_t> QueryEngine::DeltaBackend(
    const RangeRequest& request, const cache::ResultCache* cache) const {
  if (request.cache != CachePolicy::kDelta || cache == nullptr ||
      !cache->enabled()) {
    return std::nullopt;
  }
  // Cached entries are only valid at the cache's live epoch — a request
  // explicitly pinned elsewhere must really execute.
  if (request.read_epoch != storage::kLatestEpoch) return std::nullopt;
  std::vector<size_t> selected = Select(request.backend);
  if (selected.size() != 1) return std::nullopt;
  return selected[0];
}

Status QueryEngine::ExecuteDeltaOn(const RangeRequest& request, size_t b,
                                   ResultVisitor* visitor,
                                   std::span<storage::PoolSet> pools,
                                   cache::ResultCache* cache,
                                   obs::Trace* trace,
                                   RangeReport* report) const {
  const SpatialBackend* backend = backends_[b].get();
  storage::PoolSet* pool = &pools[b];

  RangeRow row;
  row.method = backend->name();
  const int backend_span =
      trace != nullptr
          ? trace->Begin(std::string("backend:") + backend->name())
          : -1;
  storage::IoStats io0 = backend->IoTotals();

  // Pin residual queries at the cache's epoch, not the engine's: every
  // resident entry is valid exactly there, so covered fragments and
  // residual answers merge into one consistent snapshot even if a writer
  // published a newer version mid-plan. (The caller holds cache_mu_, so
  // the cache epoch cannot advance under the plan.)
  const storage::Epoch pinned = cache->epoch();
  NEURODB_ASSIGN_OR_RETURN(const std::shared_ptr<const DeltaIndex> delta,
                           live_.At(pinned));

  cache::DeltaPlan plan;
  NEURODB_ASSIGN_OR_RETURN(
      geom::ElementVec merged,
      cache::DeltaPlanner::Answer(
          *cache, request.box,
          [&](const Aabb& residual, CollectingVisitor* out) {
            RangeStats residual_stats;
            NEURODB_RETURN_NOT_OK(backend->RangeQueryView(
                delta.get(), residual, pool, *out, &residual_stats));
            row.stats.pages_read += residual_stats.pages_read;
            row.stats.elements_scanned += residual_stats.elements_scanned;
            row.stats.pool += residual_stats.pool;
            return Status::OK();
          },
          &plan));

  if (visitor != nullptr) {
    for (const geom::SpatialElement& e : merged) {
      visitor->Visit(e.id, e.bounds);
    }
  }

  row.stats.results = merged.size();
  row.stats.time_us = row.stats.pool.ModeledMicros(options_.cost);
  const storage::IoStats io_delta = backend->IoTotals() - io0;
  report->io += io_delta;
  report->pool += row.stats.pool;
  if (!backend_metrics_.empty()) {
    const BackendMetrics& bm = backend_metrics_[b];
    obs::Bump(bm.queries);
    obs::Add(bm.pages_read, row.stats.pages_read);
    obs::Add(bm.results, row.stats.results);
  }
  if (trace != nullptr) {
    trace->Tag(backend_span, "epoch", pinned);
    trace->Tag(backend_span, "pages_read", row.stats.pages_read);
    trace->Tag(backend_span, "results", row.stats.results);
    trace->Tag(backend_span, "cache_hit_fraction",
               std::to_string(plan.covered_fraction));
    trace->End(backend_span);
    AddPoolAndDiskSpans(trace, backend_span, row.stats.pool, io_delta);
  }
  report->rows.push_back(std::move(row));
  report->results = merged.size();
  report->results_match = true;
  report->epoch = pinned;
  report->cache_hit_fraction = plan.covered_fraction;
  report->delta_volume_fraction = plan.residual_fraction;

  cache->Insert(request.box, std::move(merged));
  return Status::OK();
}

std::shared_ptr<obs::Trace> QueryEngine::MaybeTrace(bool requested,
                                                    const char* root) const {
  // Traces are an obs feature: with metrics off the engine never builds
  // one (request.trace is ignored — the report's trace stays null).
  if (metrics_ == nullptr) return nullptr;
  if (!requested && slow_log_ == nullptr) return nullptr;
  return std::make_shared<obs::Trace>(root);
}

void QueryEngine::FinishRangeQuery(bool keep_trace, uint64_t wall_us,
                                   std::shared_ptr<obs::Trace> trace,
                                   RangeReport* report) const {
  obs::Bump(em_.range.count);
  obs::Add(em_.range.results, report->results);
  uint64_t pages = 0;
  for (const RangeRow& row : report->rows) pages += row.stats.pages_read;
  obs::Add(em_.range.pages_read, pages);
  obs::Record(em_.range.latency_us, wall_us);
  if (trace == nullptr) return;
  trace->Tag(0, "epoch", report->epoch);
  trace->Tag(0, "results", report->results);
  trace->Tag(0, "pages_read", pages);
  trace->Tag(0, "cache_hit_fraction",
             std::to_string(report->cache_hit_fraction));
  trace->End(0);
  if (slow_log_ != nullptr && wall_us >= slow_log_->threshold_us()) {
    obs::Bump(em_.slow_queries);
    slow_log_->Record("range", wall_us, trace);
  }
  if (keep_trace) report->trace = std::move(trace);
}

void QueryEngine::FinishKnnQuery(bool keep_trace, uint64_t wall_us,
                                 std::shared_ptr<obs::Trace> trace,
                                 KnnReport* report) const {
  obs::Bump(em_.knn.count);
  obs::Add(em_.knn.results, report->hits.size());
  uint64_t pages = 0, reasks = 0;
  for (const RangeRow& row : report->rows) {
    pages += row.stats.pages_read;
    reasks += row.stats.knn_reasks;
  }
  obs::Add(em_.knn.pages_read, pages);
  obs::Add(em_.knn_reasks, reasks);
  obs::Record(em_.knn.latency_us, wall_us);
  if (trace == nullptr) return;
  trace->Tag(0, "epoch", report->epoch);
  trace->Tag(0, "results", report->hits.size());
  trace->Tag(0, "pages_read", pages);
  trace->End(0);
  if (slow_log_ != nullptr && wall_us >= slow_log_->threshold_us()) {
    obs::Bump(em_.slow_queries);
    slow_log_->Record("knn", wall_us, trace);
  }
  if (keep_trace) report->trace = std::move(trace);
}

Result<RangeReport> QueryEngine::Execute(const RangeRequest& request,
                                         ResultVisitor& visitor) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("Execute"));
  NEURODB_RETURN_NOT_OK(ValidateRequest(request, "Execute"));
  std::shared_ptr<obs::Trace> trace = MaybeTrace(request.trace, "range");
  Timer wall;
  // Shared with other readers and with ApplyUpdates; only Compact excludes
  // us (it is the one writer that destroys pinned snapshots).
  std::shared_lock<std::shared_mutex> read_lock(compact_mu_);

  RangeReport report;
  if (request.cache == CachePolicy::kCold) {
    // Cold: a fresh pool per backend, as the paper's per-query cost model.
    std::vector<storage::PoolSet> cold = MakePools();
    NEURODB_RETURN_NOT_OK(
        ExecuteOn(request, &visitor, cold, trace.get(), &report));
  } else if (const std::optional<size_t> b =
                 DeltaBackend(request, result_cache_.get())) {
    // The result cache is shared mutable state: the plan must see it
    // unchanged until this request's answer is cached.
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    NEURODB_RETURN_NOT_OK(ExecuteDeltaOn(request, *b, &visitor, warm_pools_,
                                         result_cache_.get(), trace.get(),
                                         &report));
  } else {
    // Warm: the persistent pools latch themselves, so warm readers overlap;
    // the report's tallies count this request's fetches alone.
    NEURODB_RETURN_NOT_OK(
        ExecuteOn(request, &visitor, warm_pools_, trace.get(), &report));
  }
  if (metrics_ != nullptr) {
    FinishRangeQuery(request.trace, wall.ElapsedNanos() / 1000,
                     std::move(trace), &report);
  }
  return report;
}

Result<RangeReport> QueryEngine::Execute(const RangeRequest& request) {
  CountingVisitor ignore;
  return Execute(request, ignore);
}

Result<KnnReport> QueryEngine::Execute(const KnnRequest& request) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("Execute"));
  NEURODB_RETURN_NOT_OK(ValidateRequest(request, "Execute"));
  std::shared_ptr<obs::Trace> trace = MaybeTrace(request.trace, "knn");
  Timer wall;
  std::shared_lock<std::shared_mutex> read_lock(compact_mu_);

  KnnReport report;
  if (request.cache == CachePolicy::kCold) {
    std::vector<storage::PoolSet> cold = MakePools();
    NEURODB_RETURN_NOT_OK(ExecuteKnnOn(request, cold, trace.get(), &report));
  } else {
    NEURODB_RETURN_NOT_OK(
        ExecuteKnnOn(request, warm_pools_, trace.get(), &report));
  }
  if (metrics_ != nullptr) {
    FinishKnnQuery(request.trace, wall.ElapsedNanos() / 1000, std::move(trace),
                   &report);
  }
  return report;
}

Status QueryEngine::ExecuteBatchSlice(
    std::span<const QueryRequest> requests, size_t begin, size_t end,
    std::span<storage::PoolSet> pools, cache::ResultCache* cache,
    std::mutex* cache_mu, std::atomic<uint64_t>* dropped_pages,
    std::vector<QueryReport>* reports, BatchStats* stats) const {
  auto lock_cache = [cache_mu] {
    return cache_mu != nullptr ? std::unique_lock<std::mutex>(*cache_mu)
                               : std::unique_lock<std::mutex>();
  };
  // Every report's tally is its own fetches, so the sums below describe
  // exactly this slice however many other readers share the pools.
  auto add_tally = [&](const storage::PoolCounters& pool,
                       const std::vector<RangeRow>& rows) {
    for (const RangeRow& row : rows) stats->pages_read += row.stats.pages_read;
    stats->time_us += pool.ModeledMicros(options_.cost);
    stats->pool_hits += pool.hits;
    stats->pool_misses += pool.misses;
    stats->pool_evictions += pool.evictions;
  };
  for (size_t i = begin; i < end; ++i) {
    const QueryRequest& request = requests[i];
    CachePolicy policy =
        std::visit([](const auto& r) { return r.cache; }, request);
    if (policy == CachePolicy::kCold) {
      uint64_t dropped = 0;
      for (storage::PoolSet& set : pools) dropped += set.EvictAll();
      if (dropped_pages != nullptr) *dropped_pages += dropped;
      if (cache != nullptr) {
        std::unique_lock<std::mutex> cache_lock = lock_cache();
        cache->Clear();
      }
    }

    if (const auto* range = std::get_if<RangeRequest>(&request)) {
      std::shared_ptr<obs::Trace> trace = MaybeTrace(range->trace, "range");
      Timer wall;
      RangeReport report;
      if (const std::optional<size_t> b = DeltaBackend(*range, cache)) {
        std::unique_lock<std::mutex> cache_lock = lock_cache();
        NEURODB_RETURN_NOT_OK(ExecuteDeltaOn(*range, *b, nullptr, pools,
                                             cache, trace.get(), &report));
        ++stats->delta_requests;
        stats->cache_hit_fraction += report.cache_hit_fraction;
        stats->delta_volume_fraction += report.delta_volume_fraction;
      } else {
        NEURODB_RETURN_NOT_OK(
            ExecuteOn(*range, nullptr, pools, trace.get(), &report));
      }
      add_tally(report.pool, report.rows);
      stats->results += report.results;
      if (metrics_ != nullptr) {
        // Batch entries record into the same thread-safe registry the
        // foreground path uses — concurrent lanes included.
        FinishRangeQuery(range->trace, wall.ElapsedNanos() / 1000,
                         std::move(trace), &report);
      }
      (*reports)[i] = std::move(report);
    } else {
      const KnnRequest& knn = std::get<KnnRequest>(request);
      std::shared_ptr<obs::Trace> trace = MaybeTrace(knn.trace, "knn");
      Timer wall;
      KnnReport report;
      NEURODB_RETURN_NOT_OK(ExecuteKnnOn(knn, pools, trace.get(), &report));
      add_tally(report.pool, report.rows);
      stats->results += report.hits.size();
      if (metrics_ != nullptr) {
        FinishKnnQuery(knn.trace, wall.ElapsedNanos() / 1000, std::move(trace),
                       &report);
      }
      (*reports)[i] = std::move(report);
    }
  }
  return Status::OK();
}

Result<MixedBatchResult> QueryEngine::ExecuteBatch(
    std::span<const QueryRequest> requests) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("ExecuteBatch"));
  for (const QueryRequest& request : requests) {
    NEURODB_RETURN_NOT_OK(std::visit(
        [&](const auto& r) { return ValidateRequest(r, "ExecuteBatch"); },
        request));
  }

  Timer batch_wall;
  std::shared_lock<std::shared_mutex> read_lock(compact_mu_);

  MixedBatchResult out;
  out.reports.resize(requests.size());
  out.aggregate.queries = requests.size();

  // Sum → mean for the delta coverage fractions once a batch is assembled.
  auto normalize_delta = [](BatchStats* stats) {
    if (stats->delta_requests == 0) return;
    double n = static_cast<double>(stats->delta_requests);
    stats->cache_hit_fraction /= n;
    stats->delta_volume_fraction /= n;
  };

  const bool parallel = thread_pool_ != nullptr && options_.num_threads > 1 &&
                        requests.size() > 1;
  if (!parallel) {
    // Serial: the batch runs over the engine's *persistent* pools and
    // result cache — warm state survives across batches (kCold requests
    // still evict before executing). The pools latch themselves and the
    // cache is locked per request, so other readers overlap the batch; the
    // aggregate is the sum of the batch's own per-request tallies.
    NEURODB_RETURN_NOT_OK(ExecuteBatchSlice(
        requests, 0, requests.size(), warm_pools_, result_cache_.get(),
        &cache_mu_, &warm_pages_dropped_, &out.reports, &out.aggregate));
    out.aggregate.critical_path_us = out.aggregate.time_us;
    out.aggregate.lanes = 1;
    normalize_delta(&out.aggregate);
    obs::Bump(em_.batch_count);
    obs::Add(em_.batch_queries, out.aggregate.queries);
    obs::Add(em_.batch_lanes, 1);
    obs::Record(em_.batch_latency_us, batch_wall.ElapsedNanos() / 1000);
    return out;
  }

  // Parallel: contiguous request lanes, one pool family and one private
  // result cache per lane. Lane-local counters merge in lane order, so the
  // output is independent of worker scheduling; reports land in their
  // request slot directly.
  std::vector<exec::LaneRange> lanes =
      exec::PartitionLanes(requests.size(), options_.num_threads);
  std::vector<BatchStats> lane_stats(lanes.size());
  exec::ParallelExecutor executor(thread_pool_.get());
  Status status = executor.Run(lanes, [&](const exec::LaneRange& lane) {
    Timer lane_wall;
    std::vector<storage::PoolSet> lane_pools = MakePools();
    cache::ResultCache lane_cache(EffectiveResultCacheBoxes());
    // Private lane caches start empty but stamp entries at the engine's
    // current epoch (nothing to invalidate — the empty dirty box).
    lane_cache.AdvanceEpoch(epoch(), Aabb());
    NEURODB_RETURN_NOT_OK(ExecuteBatchSlice(
        requests, lane.begin, lane.end, lane_pools, &lane_cache, nullptr,
        nullptr, &out.reports, &lane_stats[lane.lane]));
    obs::Record(em_.batch_lane_time_us, lane_wall.ElapsedNanos() / 1000);
    return Status::OK();
  });
  NEURODB_RETURN_NOT_OK(status);

  out.aggregate.lanes = lanes.size();
  for (const BatchStats& local : lane_stats) {
    out.aggregate.pages_read += local.pages_read;
    out.aggregate.results += local.results;
    out.aggregate.time_us += local.time_us;
    out.aggregate.critical_path_us =
        std::max(out.aggregate.critical_path_us, local.time_us);
    out.aggregate.pool_hits += local.pool_hits;
    out.aggregate.pool_misses += local.pool_misses;
    out.aggregate.pool_evictions += local.pool_evictions;
    out.aggregate.delta_requests += local.delta_requests;
    out.aggregate.cache_hit_fraction += local.cache_hit_fraction;
    out.aggregate.delta_volume_fraction += local.delta_volume_fraction;
  }
  normalize_delta(&out.aggregate);
  obs::Bump(em_.batch_count);
  obs::Add(em_.batch_queries, out.aggregate.queries);
  obs::Add(em_.batch_lanes, out.aggregate.lanes);
  obs::Record(em_.batch_latency_us, batch_wall.ElapsedNanos() / 1000);
  return out;
}

Result<BatchResult> QueryEngine::ExecuteBatch(
    std::span<const RangeRequest> requests) {
  std::vector<QueryRequest> mixed(requests.begin(), requests.end());
  NEURODB_ASSIGN_OR_RETURN(MixedBatchResult mixed_result,
                           ExecuteBatch(std::span<const QueryRequest>(mixed)));
  BatchResult out;
  out.aggregate = mixed_result.aggregate;
  out.reports.reserve(mixed_result.reports.size());
  for (QueryReport& report : mixed_result.reports) {
    out.reports.push_back(std::move(std::get<RangeReport>(report)));
  }
  return out;
}

Result<scout::SessionResult> QueryEngine::Execute(
    const WalkthroughRequest& request) {
  NEURODB_ASSIGN_OR_RETURN(Session session,
                           OpenSession(request.method, request.cache));
  for (const Aabb& query : request.queries) {
    NEURODB_RETURN_NOT_OK(session.Step(query).status());
  }
  return session.Summary();
}

Result<touch::JoinResult> QueryEngine::Execute(const JoinRequest& request) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("Execute"));
  NEURODB_RETURN_NOT_OK(RequireGeometry("Execute(JoinRequest)"));
  if (committed_since_load_) {
    return Status::FailedPrecondition(
        "QueryEngine::Execute(JoinRequest): a batch has committed since "
        "LoadCircuit, and joins read the load's segment geometry");
  }
  NEURODB_RETURN_NOT_OK(request.options.Validate());
  Timer wall;
  NEURODB_ASSIGN_OR_RETURN(
      touch::JoinResult result,
      touch::RunJoin(request.method, axons_, dendrites_, request.options));
  obs::Bump(em_.join_count);
  obs::Add(em_.join_pairs, result.pairs.size());
  obs::Record(em_.join_latency_us, wall.ElapsedNanos() / 1000);
  return result;
}

Result<Session> QueryEngine::OpenSession(scout::PrefetchMethod method,
                                         CachePolicy cache) {
  NEURODB_RETURN_NOT_OK(RequireLoaded("OpenSession"));
  // An engine created empty (LoadElements({})) never built a FLAT index:
  // there is no crawl layout for a session to walk.
  if (!flat_->has_index()) {
    return Status::InvalidArgument(
        "QueryEngine::OpenSession: the FLAT base is empty — an engine "
        "populated purely through updates has no crawl layout to explore");
  }
  if (method == scout::PrefetchMethod::kScout) {
    NEURODB_RETURN_NOT_OK(RequireGeometry("OpenSession(kScout)"));
  }
  scout::SessionOptions session_options = EffectiveSessionOptions();
  // The policy argument governs, both ways: kCold must yield a genuinely
  // cold session (the harness's cold baselines depend on it) even when the
  // engine-wide session options enable caching — and result_cache_boxes
  // == 0 is the engine-wide kill switch, covering sessions too. Callers
  // who want the raw SessionOptions knobs use Session::Open directly.
  session_options.cache_results =
      cache != CachePolicy::kCold && EffectiveResultCacheBoxes() > 0;
  if (session_options.cache_results) {
    session_options.result_cache_boxes = options_.result_cache_boxes;
  }
  // Engine sessions are delta-aware: each step answers over the LiveSet's
  // newest *published* delta version and replays the update log
  // into the private result cache, so a session stays correct across
  // ApplyUpdates. Steps hold compact_mu_ shared (Compact excludes them for
  // the rebuild, after which the session re-fetches lazily through its
  // pool's store-epoch check instead of failing).
  // Session observability rides the engine's registry and slow-query log;
  // with metrics off the hooks stay empty and steps record nothing.
  SessionObs hooks;
  hooks.metrics = metrics_.get();
  hooks.slow_log = slow_log_.get();
  hooks.knn_reasks = em_.knn_reasks;
  return Session::Open(&flat_->index(), flat_->store(), &resolver_, method,
                       session_options, &live_, &update_log_, &compact_mu_,
                       hooks);
}

}  // namespace engine
}  // namespace neurodb
