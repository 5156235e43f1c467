#include "scout/session.h"

#include "common/sim_clock.h"

namespace neurodb {
namespace scout {

WalkthroughSession::WalkthroughSession(const flat::FlatIndex* index,
                                       storage::PageStore* store,
                                       const neuro::SegmentResolver* resolver,
                                       SessionOptions options)
    : index_(index), store_(store), resolver_(resolver), options_(options) {}

Result<SessionResult> WalkthroughSession::Run(
    const std::vector<geom::Aabb>& queries, PrefetchMethod method) {
  if (index_ == nullptr || store_ == nullptr) {
    return Status::InvalidArgument("WalkthroughSession: null index or store");
  }

  SimClock clock;
  storage::BufferPool pool(store_, options_.pool_pages, &clock, options_.cost);

  PrefetchContext ctx;
  ctx.index = index_;
  ctx.pool = &pool;
  ctx.resolver = resolver_;
  NEURODB_ASSIGN_OR_RETURN(std::unique_ptr<Prefetcher> prefetcher,
                           MakePrefetcher(method, ctx, options_.scout));
  prefetcher->Reset();

  const size_t budget = options_.PrefetchBudget();
  SessionResult out;
  out.steps.reserve(queries.size());

  for (const geom::Aabb& query : queries) {
    StepRecord step;
    uint64_t t0 = clock.NowMicros();

    std::vector<geom::ElementId> result;
    geom::VectorVisitor visitor(&result);
    flat::FlatQueryStats query_stats;
    NEURODB_RETURN_NOT_OK(
        index_->RangeQuery(query, &pool, visitor, &query_stats));

    step.stall_us = clock.NowMicros() - t0;
    step.pages_missed = query_stats.pool.misses;
    step.pages_hit = query_stats.pool.hits;
    step.results = result.size();

    // Think pause: the prefetcher works while the scientist looks at the
    // data. Loads within the budget finish before the next query.
    step.prefetched = prefetcher->AfterQuery(query, result, budget);
    step.candidates = prefetcher->CandidateCount();
    clock.Advance(options_.think_time_us);

    out.total_stall_us += step.stall_us;
    out.steps.push_back(step);
  }

  out.total_time_us = clock.NowMicros();
  const storage::BufferPoolCounters counters = pool.Counters();
  out.pages_missed = counters.misses;
  out.pages_hit = counters.hits;
  out.prefetch_issued = counters.prefetch_issued;
  out.prefetch_used = counters.prefetch_used;
  return out;
}

}  // namespace scout
}  // namespace neurodb
