#include "engine/session.h"

#include <limits>
#include <memory>
#include <utility>

#include "cache/delta_planner.h"
#include "common/stats.h"

namespace neurodb {
namespace engine {

Result<Session> Session::Open(const flat::FlatIndex* index,
                              storage::PageStore* store,
                              const neuro::SegmentResolver* resolver,
                              scout::PrefetchMethod method,
                              scout::SessionOptions options,
                              const BaseDeltaBackend* delta_source,
                              const UpdateLog* update_log,
                              std::shared_mutex* read_lock,
                              SessionObs hooks) {
  if (index == nullptr || store == nullptr) {
    return Status::InvalidArgument("Session: null index or store");
  }
  if (options.pool_pages == 0) {
    return Status::InvalidArgument("Session: pool_pages must be > 0");
  }

  Session session;
  session.index_ = index;
  session.store_ = store;
  session.store_epoch_at_open_ = store->epoch();
  session.delta_source_ = delta_source;
  if (delta_source != nullptr) {
    session.snap_ = delta_source->LatestDelta();
    session.delta_ = session.snap_.delta.get();
  }
  session.read_lock_ = read_lock;
  session.update_log_ = update_log;
  // Updates applied before the session opened are already part of every
  // answer it will compute — only *future* stamps need cache catch-up.
  session.log_seen_ = update_log != nullptr ? update_log->size() : 0;
  session.options_ = options;
  session.budget_ = options.PrefetchBudget();
  session.clock_ = std::make_unique<SimClock>();
  session.pool_ = std::make_unique<storage::BufferPool>(
      store, options.pool_pages, session.clock_.get(), options.cost);
  // Result caching requires the exact crawl configuration: with
  // rescue=false a FLAT range query may miss disconnected pages, while
  // cache entries (and think-time prepopulation, which evaluates from the
  // always-complete seed-tree page coverage) are exact — a cached session
  // would then *disagree* with a cold one. rescue is on by default; the
  // rare approximate configuration just runs uncached.
  if (options.cache_results && options.result_cache_boxes > 0 &&
      index->options().rescue) {
    session.cache_ =
        std::make_unique<cache::ResultCache>(options.result_cache_boxes);
    // Entries record the epoch they were computed at — start the stamp at
    // the engine's current epoch, not 0 (nothing to invalidate yet).
    if (update_log != nullptr) {
      session.cache_->AdvanceEpoch(update_log->epoch(), geom::Aabb());
    }
  }

  session.obs_ = hooks;
  if (hooks.metrics != nullptr) {
    session.m_steps_ = hooks.metrics->counter("session.step.count");
    session.m_pages_missed_ =
        hooks.metrics->counter("session.step.pages_missed");
    session.m_pages_hit_ = hooks.metrics->counter("session.step.pages_hit");
    session.m_latency_us_ =
        hooks.metrics->histogram("session.step.latency_us");
    session.m_stall_us_ = hooks.metrics->histogram("session.step.stall_us");
    session.m_prefetch_us_ =
        hooks.metrics->histogram("session.step.prefetch_us");
  }

  scout::PrefetchContext ctx;
  ctx.index = index;
  ctx.pool = session.pool_.get();
  ctx.resolver = resolver;
  NEURODB_ASSIGN_OR_RETURN(session.prefetcher_,
                           scout::MakePrefetcher(method, ctx, options.scout));
  session.prefetcher_->Reset();
  return session;
}

void Session::CatchUpInvalidations() {
  if (update_log_ == nullptr) return;
  if (cache_ != nullptr) {
    for (const EpochStamp& stamp : update_log_->StampsSince(log_seen_)) {
      cache_->AdvanceEpoch(stamp.epoch, stamp.dirty);
      ++log_seen_;
    }
  } else {
    log_seen_ = update_log_->size();
  }
}

Result<scout::StepRecord> Session::RunStep(
    const std::function<Status(std::vector<geom::ElementId>* ids,
                               geom::Aabb* prefetch_box)>& query) {
  // Wall clock (not the simulated session clock): latency histograms and
  // the slow-query threshold measure real elapsed time.
  Timer wall;
  std::shared_ptr<obs::Trace> trace;
  if (options_.trace_steps || obs_.slow_log != nullptr) {
    trace = std::make_shared<obs::Trace>("session.step");
  }

  // Engine-owned sessions hold the compaction lock shared for the whole
  // step: queries run concurrently with ApplyUpdates (snapshot below), but
  // never against a page layout Compact is mid-way through rebuilding.
  std::shared_lock<std::shared_mutex> read_lock;
  if (read_lock_ != nullptr) {
    read_lock = std::shared_lock<std::shared_mutex>(*read_lock_);
  }

  // A compaction rebuilt the page layout since the last step. The rebuilt
  // base answers every query identically (compaction folds the delta in
  // without changing the live set), the pool evicts its stale pages
  // through the same store-epoch check, and the FLAT index was rebuilt in
  // place — so simply adopt the new layout and carry on. The one layout a
  // session cannot adopt is no layout at all: a base compacted down to
  // zero elements has no crawl pages left to explore.
  if (store_ != nullptr && store_->epoch() != store_epoch_at_open_) {
    if (delta_source_ != nullptr && delta_source_->base_empty()) {
      return Status::InvalidArgument(
          "Session::Step: the base compacted down to empty — there is no "
          "crawl layout left to explore; repopulate and reopen");
    }
    store_epoch_at_open_ = store_->epoch();
  }

  // Pin the newest published delta snapshot for the duration of the step:
  // every merge below sees one immutable delta even while ApplyUpdates
  // publishes newer versions concurrently.
  if (delta_source_ != nullptr) {
    snap_ = delta_source_->LatestDelta();
    delta_ = snap_.delta.get();
  }

  // Before answering: drop cached boxes whose region updates dirtied since
  // the last step — the cached session must stay byte-identical to a cold
  // one across ApplyUpdates.
  CatchUpInvalidations();

  scout::StepRecord step;
  uint64_t t0 = clock_->NowMicros();
  // The pool is the session's own (one step at a time), so the counter
  // delta across the step is exactly the step's pool activity.
  const storage::PoolCounters pool0 = pool_->Counters();
  last_cover_fraction_ = 0.0;
  last_delta_fraction_ = 1.0;

  std::vector<geom::ElementId> ids;
  geom::Aabb prefetch_box;
  const int query_span = trace != nullptr ? trace->Begin("query") : -1;
  NEURODB_RETURN_NOT_OK(query(&ids, &prefetch_box));
  if (trace != nullptr) trace->End(query_span);

  step.stall_us = clock_->NowMicros() - t0;
  const storage::PoolCounters step_pool = pool_->Counters() - pool0;
  step.pages_missed = step_pool.misses;
  step.pages_hit = step_pool.hits;
  step.results = ids.size();
  step.epoch = CurrentEpoch();
  step.cache_hit_fraction = last_cover_fraction_;
  step.delta_volume_fraction = last_delta_fraction_;

  // Think pause: the prefetcher works while the scientist looks at the
  // data. Loads within the budget finish before the next query.
  const int prefetch_span = trace != nullptr ? trace->Begin("prefetch") : -1;
  const uint64_t prefetch_start_ns = wall.ElapsedNanos();
  step.prefetched = prefetcher_->AfterQuery(prefetch_box, ids, budget_);
  step.candidates = prefetcher_->CandidateCount();
  if (cache_ != nullptr) {
    size_t remaining =
        budget_ > step.prefetched ? budget_ - step.prefetched : 0;
    step.prefetched += PrepopulateCache(remaining);
  }
  const uint64_t prefetch_us =
      (wall.ElapsedNanos() - prefetch_start_ns) / 1000;
  if (trace != nullptr) {
    trace->Tag(prefetch_span, "pages", step.prefetched);
    trace->End(prefetch_span);
  }
  clock_->Advance(options_.think_time_us);

  const uint64_t wall_us = wall.ElapsedNanos() / 1000;
  if (trace != nullptr) {
    trace->Tag(0, "epoch", step.epoch);
    trace->Tag(0, "results", step.results);
    trace->Tag(0, "pages_missed", step.pages_missed);
    trace->Tag(0, "pages_hit", step.pages_hit);
    trace->Tag(0, "stall_us", step.stall_us);
    trace->End(0);
    if (obs_.slow_log != nullptr &&
        wall_us >= obs_.slow_log->threshold_us()) {
      obs_.slow_log->Record("session.step", wall_us, trace);
    }
    if (options_.trace_steps) step.trace = trace;
  }
  obs::Bump(m_steps_);
  obs::Add(m_pages_missed_, step.pages_missed);
  obs::Add(m_pages_hit_, step.pages_hit);
  obs::Record(m_latency_us_, wall_us);
  obs::Record(m_stall_us_, step.stall_us);
  obs::Record(m_prefetch_us_, prefetch_us);

  total_stall_us_ += step.stall_us;
  steps_.push_back(step);
  return step;
}

Status Session::DeltaMergedRange(const geom::Aabb& box,
                                 geom::ElementVec* out) {
  geom::CollectingVisitor base_out;
  NEURODB_RETURN_NOT_OK(index_->RangeQuery(box, pool_.get(), base_out));
  *out = base_out.TakeElements();
  if (delta_ != nullptr) delta_->Overlay(box, out);
  return Status::OK();
}

Status Session::CachedRangeStep(const geom::Aabb& box,
                                geom::ResultVisitor& visitor,
                                std::vector<geom::ElementId>* ids) {
  cache::DeltaPlan plan;
  NEURODB_ASSIGN_OR_RETURN(
      geom::ElementVec merged,
      cache::DeltaPlanner::Answer(
          *cache_, box,
          [&](const geom::Aabb& residual, geom::CollectingVisitor* out) {
            // Residuals answer from base + live delta; an insert shared by
            // two face-adjacent residuals is deduplicated by MergeById.
            geom::ElementVec part;
            NEURODB_RETURN_NOT_OK(DeltaMergedRange(residual, &part));
            for (const geom::SpatialElement& e : part) {
              out->Visit(e.id, e.bounds);
            }
            return Status::OK();
          },
          &plan));

  ids->reserve(merged.size());
  for (const geom::SpatialElement& e : merged) {
    visitor.Visit(e.id, e.bounds);
    ids->push_back(e.id);
  }
  last_cover_fraction_ = plan.covered_fraction;
  last_delta_fraction_ = plan.residual_fraction;
  cache_->Insert(box, std::move(merged));
  return Status::OK();
}

size_t Session::PrepopulateCache(size_t budget) {
  size_t loaded = 0;
  for (const geom::Aabb& predicted : prefetcher_->PredictedBoxes()) {
    if (!predicted.IsValid()) continue;
    // Already fully covered (a stationary or repeating path): evaluating
    // would rebuild a result Insert only discards — skip the page scan.
    if (cache_->Covers(predicted)) continue;

    std::vector<uint32_t> pages = index_->PagesInRange(predicted);
    size_t uncached = 0;
    for (uint32_t page : pages) {
      if (!pool_->Contains(index_->PageAt(page))) ++uncached;
    }
    // Evaluating this box would need more demand I/O than the think pause
    // still covers — leave it to the next step's demand path.
    size_t remaining = budget > loaded ? budget - loaded : 0;
    if (uncached > remaining) continue;

    // The precount can go stale mid-loop: on a full pool a Prefetch may
    // evict a not-yet-visited page of this same box, which then needs its
    // own Prefetch. The hard bound below keeps `loaded` within budget
    // regardless (the Peek pass skips the insert if anything is missing).
    for (uint32_t page : pages) {
      if (loaded >= budget) break;
      storage::PageId id = index_->PageAt(page);
      if (pool_->Contains(id)) continue;
      if (pool_->Prefetch(id).ok()) ++loaded;
    }

    // Evaluate over resident pages only; if anything got evicted under
    // pool pressure the entry would be incomplete, so skip the insert.
    geom::ElementVec results;
    bool complete = true;
    for (uint32_t page : pages) {
      const storage::Page* data = pool_->Peek(index_->PageAt(page));
      if (data == nullptr) {
        complete = false;
        break;
      }
      for (const geom::SpatialElement& e : data->elements) {
        if (e.bounds.Intersects(predicted)) results.push_back(e);
      }
    }
    if (!complete) continue;
    // Page contents are the immutable base — overlay the live delta so the
    // cached entry is the *current* complete answer for the predicted box.
    if (delta_ != nullptr) delta_->Overlay(predicted, &results);
    cache::SortById(&results);
    cache_->Insert(predicted, std::move(results));
  }
  return loaded;
}

Result<scout::StepRecord> Session::Step(const geom::Aabb& box,
                                        geom::ResultVisitor& visitor) {
  if (!box.IsValid()) {
    return Status::InvalidArgument("Session::Step: invalid box (lo > hi)");
  }
  if (cache_ != nullptr) {
    return RunStep([&](std::vector<geom::ElementId>* ids,
                       geom::Aabb* prefetch_box) {
      *prefetch_box = box;
      return CachedRangeStep(box, visitor, ids);
    });
  }
  return RunStep([&](std::vector<geom::ElementId>* ids,
                     geom::Aabb* prefetch_box) {
    *prefetch_box = box;
    if (delta_ == nullptr || delta_->Empty()) {
      // Read-only fast path: stream in crawl order, collect the ids for
      // the prefetcher.
      geom::VectorVisitor collector(ids);
      geom::TeeVisitor tee(&visitor, &collector);
      return index_->RangeQuery(box, pool_.get(), tee);
    }
    geom::ElementVec results;
    NEURODB_RETURN_NOT_OK(DeltaMergedRange(box, &results));
    ids->reserve(results.size());
    for (const geom::SpatialElement& e : results) {
      visitor.Visit(e.id, e.bounds);
      ids->push_back(e.id);
    }
    return Status::OK();
  });
}

Result<scout::StepRecord> Session::Step(const geom::Aabb& box) {
  geom::CountingVisitor ignore;
  return Step(box, ignore);
}

Result<scout::StepRecord> Session::StepKnn(const geom::Vec3& point, size_t k,
                                           std::vector<geom::KnnHit>* hits) {
  if (k == 0) {
    return Status::InvalidArgument("Session::StepKnn: k must be > 0");
  }
  if (!geom::IsFinitePoint(point)) {
    return Status::InvalidArgument("Session::StepKnn: non-finite query point");
  }

  std::vector<geom::KnnHit> local;
  std::vector<geom::KnnHit>* out = hits != nullptr ? hits : &local;
  return RunStep([&](std::vector<geom::ElementId>* ids,
                     geom::Aabb* prefetch_box) {
    const bool merge_delta = delta_ != nullptr && !delta_->Empty();
    if (!merge_delta) {
      NEURODB_RETURN_NOT_OK(index_->Knn(point, k, pool_.get(), out));
    } else {
      // The same merge BaseDeltaBackend runs (DeltaIndex::MergeKnn).
      NEURODB_RETURN_NOT_OK(delta_->MergeKnn(
          point, k,
          [&](size_t ask, std::vector<geom::KnnHit>* base_hits) {
            return index_->Knn(point, ask, pool_.get(), base_hits);
          },
          out));
    }
    ids->reserve(out->size());
    for (const geom::KnnHit& hit : *out) ids->push_back(hit.id);
    // The prefetcher sees the neighbourhood the answer came from — the
    // cube covering the kth hit — so exploration models treat kNN steps
    // like range steps.
    double reach = out->empty() ? 0.0 : out->back().distance;
    *prefetch_box =
        geom::Aabb::Cube(point, 2.0f * static_cast<float>(reach));
    return Status::OK();
  });
}

scout::SessionResult Session::Summary() const {
  scout::SessionResult out;
  out.steps = steps_;
  out.total_stall_us = total_stall_us_;
  out.total_time_us = clock_->NowMicros();
  const storage::BufferPoolCounters counters = pool_->Counters();
  out.pages_missed = counters.misses;
  out.pages_hit = counters.hits;
  out.prefetch_issued = counters.prefetch_issued;
  out.prefetch_used = counters.prefetch_used;
  if (cache_ != nullptr) {
    out.cache_invalidated_boxes = cache_->stats().invalidated_boxes;
  }
  return out;
}

}  // namespace engine
}  // namespace neurodb
