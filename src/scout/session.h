// NeuroDB — the walkthrough's value types: session tuning, per-step rows
// and the whole-session summary.
//
// The demo's walkthrough (paper Section 3.2): a scientist issues range
// queries in close succession along a path; between queries there is
// *think time* during which data is visualized and analyzed — and during
// which a prefetcher may warm the buffer pool. engine::Session runs that
// loop one Step at a time (QueryEngine::OpenSession, or Session::Open over
// any FLAT index). Time is modeled on a SimClock so the experiments are
// exact and portable: each demand page miss costs
// DiskCostModel::page_read_micros of stall; a prefetcher may load
// think_time/page_read pages per step for free (the reads overlap the
// user's thinking).

#ifndef NEURODB_SCOUT_SESSION_H_
#define NEURODB_SCOUT_SESSION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.h"
#include "scout/prefetcher.h"
#include "storage/page.h"

namespace neurodb {
namespace scout {

/// Session tuning.
struct SessionOptions {
  /// Buffer pool capacity in pages.
  size_t pool_pages = 4096;
  /// Simulated think time between queries, microseconds.
  uint64_t think_time_us = 400'000;
  /// Disk cost model (drives both stall and the prefetch budget).
  storage::DiskCostModel cost;
  /// SCOUT tuning (ignored by other methods).
  ScoutOptions scout;
  /// Result caching (engine::Session): keep the last result_cache_boxes
  /// evaluated step boxes with their exact result sets and answer
  /// overlapping steps by delta decomposition (src/cache/). Off by default
  /// — a cached session delivers results in ascending id order instead of
  /// index crawl order.
  bool cache_results = false;
  size_t result_cache_boxes = 8;
  /// Attach an obs::Trace span tree to every StepRecord
  /// (engine::Session): root span "session.step" with "query" and
  /// "prefetch" children, tagged with epoch / results / pool activity.
  /// Off by default — tracing allocates per step.
  bool trace_steps = false;

  /// Pages a prefetcher can load during one think pause, capped at the
  /// pool capacity — a longer pause cannot usefully prefetch more pages
  /// than the pool can hold (it would evict what it just warmed).
  size_t PrefetchBudget() const {
    if (cost.page_read_micros == 0) return 0;
    return std::min<size_t>(
        static_cast<size_t>(think_time_us / cost.page_read_micros),
        pool_pages);
  }
};

/// Per-query record (the demo's live panel rows).
struct StepRecord {
  uint64_t stall_us = 0;       // time the user waited for this query
  uint64_t pages_missed = 0;   // demand misses
  uint64_t pages_hit = 0;      // pool hits
  uint64_t results = 0;        // result elements
  uint64_t prefetched = 0;     // pages prefetched after this query
  uint64_t candidates = 0;     // SCOUT candidate structures (else 0)
  /// Data epoch this step answered at (0 for sessions opened outside the
  /// engine's update path, or while no update was ever applied).
  uint64_t epoch = 0;
  /// Result-cache delta answering (engine::Session with cache_results):
  /// fraction of the query volume served from the cache, and the fraction
  /// the backend still had to answer. Uncached steps report 0 / 1.
  double cache_hit_fraction = 0.0;
  double delta_volume_fraction = 1.0;
  /// Span tree for this step (SessionOptions::trace_steps; otherwise null).
  std::shared_ptr<const obs::Trace> trace;
};

/// Whole-walkthrough summary (paper Figure 6's statistics).
struct SessionResult {
  std::vector<StepRecord> steps;
  uint64_t total_stall_us = 0;   // sum of per-query stalls
  uint64_t total_time_us = 0;    // stalls + think time
  uint64_t pages_missed = 0;     // "additionally retrieved"
  uint64_t pages_hit = 0;
  uint64_t prefetch_issued = 0;  // "prefetched in total"
  /// "Correctly prefetched": prefetched pages later demand-fetched. In a
  /// result-cached session this is a *lower bound* — a step answered
  /// entirely from the result cache consumes its prefetched pages via
  /// Peek, which never demands them from the pool, so the prefetches
  /// that worked best are not counted here.
  uint64_t prefetch_used = 0;
  /// Result-cache entries dropped because updates dirtied their region
  /// mid-session (invalidation churn; 0 for uncached sessions).
  uint64_t cache_invalidated_boxes = 0;

  /// Fraction of prefetched pages that were later demanded.
  double PrefetchPrecision() const {
    return prefetch_issued == 0
               ? 0.0
               : static_cast<double>(prefetch_used) / prefetch_issued;
  }

  /// Fraction of demand fetches served from cache.
  double HitRate() const {
    uint64_t total = pages_hit + pages_missed;
    return total == 0 ? 0.0 : static_cast<double>(pages_hit) / total;
  }

  /// Mean per-step result-cache coverage (0 for uncached sessions).
  double MeanCacheHitFraction() const {
    if (steps.empty()) return 0.0;
    double sum = 0.0;
    for (const StepRecord& step : steps) sum += step.cache_hit_fraction;
    return sum / static_cast<double>(steps.size());
  }

  /// Mean per-step residual volume fraction (1 for uncached sessions).
  double MeanDeltaVolumeFraction() const {
    if (steps.empty()) return 1.0;
    double sum = 0.0;
    for (const StepRecord& step : steps) sum += step.delta_volume_fraction;
    return sum / static_cast<double>(steps.size());
  }
};

}  // namespace scout
}  // namespace neurodb

#endif  // NEURODB_SCOUT_SESSION_H_
