// NeuroDB — differential-testing harness.
//
// Replays a seeded randomized workload of Range / Knn / Join / Walkthrough
// queries through the engine and checks, per query, that (a) every
// registered backend agrees (BackendChoice::kAll parity — FLAT crawl vs
// R-tree traversal vs grid scan vs sharded merge), and (b) the agreed
// answer matches a brute-force ground truth computed directly over the
// element list, so backends sharing one bug cannot pass. Joins are
// cross-checked across independent join algorithms (TOUCH vs plane sweep)
// the same way; walkthroughs replay a random-walk path one Session::Step at
// a time and cross-check every step against both the engine's kAll range
// path and brute force.
//
// RunBatchParity drives the concurrent ExecuteBatch path: the same workload
// as a batch of cold requests through a serial engine and a multi-threaded
// engine, demanding byte-identical per-query reports in request order.
//
// Every harness stops at the FIRST divergence and reports a minimal
// reproduction: every workload query carries its own sub-seed, and
// neuro::MixedWorkloadQuery(domain, elements, options, sub_seed)
// regenerates exactly the failing query — no need to replay the whole
// workload to debug it.

#ifndef NEURODB_TESTS_DIFF_HARNESS_H_
#define NEURODB_TESTS_DIFF_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "geom/knn.h"
#include "neuro/workload.h"

namespace neurodb {
namespace testing {

/// Env-tunable harness knob (the nightly ctest registrations scale query
/// counts and seeds through the environment).
inline uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Result of one differential run.
struct DiffOutcome {
  bool diverged = false;
  size_t queries_run = 0;
  size_t ranges = 0;
  size_t knns = 0;
  size_t joins = 0;
  size_t walkthroughs = 0;
  size_t updates = 0;
  /// RunConcurrentReaders: reads that failed with kOutOfRange (a retired
  /// read epoch) and were retried.
  size_t retired_retries = 0;
  /// Valid when diverged: the failing query's index in the workload and the
  /// sub-seed that regenerates it via neuro::MixedWorkloadQuery.
  size_t failing_index = 0;
  uint64_t failing_seed = 0;
  std::string detail;
  /// Shrink-reducer output (when it ran on a divergence): the smallest
  /// element subset found that still reproduces, and its size.
  bool shrunk = false;
  size_t minimized_elements = 0;
  geom::ElementVec minimized;

  std::string Summary() const {
    std::ostringstream os;
    if (!diverged) {
      os << "no divergence in " << queries_run << " queries (" << ranges
         << " range, " << knns << " knn, " << joins << " join, "
         << walkthroughs << " walkthrough, " << updates << " update)";
    } else {
      os << "DIVERGENCE at query " << failing_index
         << " — minimal repro: MixedWorkloadQuery(..., sub_seed="
         << failing_seed << ") — " << detail;
      if (shrunk) {
        os << " — circuit shrunk to " << minimized_elements << " elements";
      }
    }
    return os.str();
  }
};

/// ddmin-style circuit reducer: repeatedly drop contiguous chunks of the
/// element list (halves, then quarters, ...) while `still_diverges` keeps
/// returning true, bounded by `max_attempts` predicate evaluations (each
/// evaluation typically rebuilds a whole engine). Returns the smallest
/// reproducing subset found — minimizing the *circuit*, where the query
/// sub-seed alone cannot (a traversal bug usually needs a specific element
/// constellation, not a specific query).
inline geom::ElementVec MinimizeElements(
    geom::ElementVec elements,
    const std::function<bool(const geom::ElementVec&)>& still_diverges,
    size_t max_attempts = 48) {
  size_t attempts = 0;
  size_t chunk = std::max<size_t>(1, elements.size() / 2);
  for (;;) {
    bool removed_any = false;
    for (size_t start = 0;
         start < elements.size() && attempts < max_attempts;) {
      size_t end = std::min(elements.size(), start + chunk);
      geom::ElementVec candidate;
      candidate.reserve(elements.size() - (end - start));
      candidate.insert(candidate.end(), elements.begin(),
                       elements.begin() + static_cast<ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       elements.begin() + static_cast<ptrdiff_t>(end),
                       elements.end());
      ++attempts;
      if (!candidate.empty() && still_diverges(candidate)) {
        elements = std::move(candidate);
        removed_any = true;
        // The next chunk shifted into `start` — retry the same offset.
      } else {
        start += chunk;
      }
    }
    if (attempts >= max_attempts) break;
    if (removed_any) continue;  // another pass at this granularity
    if (chunk == 1) break;      // a full singleton pass removed nothing
    chunk = std::max<size_t>(1, chunk / 2);
  }
  return elements;
}

/// Brute-force range count over the raw element list.
inline uint64_t BruteForceRangeCount(const geom::ElementVec& elements,
                                     const geom::Aabb& box) {
  uint64_t count = 0;
  for (const auto& e : elements) {
    if (e.bounds.Intersects(box)) ++count;
  }
  return count;
}

/// Sorted ids of every element intersecting `box` (walkthrough ground
/// truth, where counts alone would let compensating errors slip through).
inline std::vector<geom::ElementId> BruteForceRangeIds(
    const geom::ElementVec& elements, const geom::Aabb& box) {
  std::vector<geom::ElementId> ids;
  for (const auto& e : elements) {
    if (e.bounds.Intersects(box)) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Replay one walkthrough path step by step: every step's streamed result
/// set must match a *cached* delta session's answer, the engine's kAll
/// range answer and brute force. Walkthrough paths use steps shorter than
/// the box side, so consecutive boxes deliberately overlap — the case the
/// result cache answers by delta decomposition. Returns a non-empty error
/// description on divergence.
inline std::string ReplayWalkthrough(
    engine::QueryEngine* db, const geom::ElementVec& elements,
    const std::vector<geom::Aabb>& path,
    scout::PrefetchMethod method = scout::PrefetchMethod::kScout) {
  auto session = db->OpenSession(method);
  if (!session.ok()) {
    return "OpenSession failed: " + session.status().ToString();
  }
  auto cached = db->OpenSession(method, engine::CachePolicy::kDelta);
  if (!cached.ok()) {
    return "OpenSession(kDelta) failed: " + cached.status().ToString();
  }
  // An engine with caching disabled (result_cache_boxes == 0 or an
  // approximate flat.rescue == false index) silently hands back an
  // uncached session — comparing it against the cold one would claim
  // delta parity that never ran. Skip the cached leg explicitly; the
  // delta-parity tests separately assert cache hits actually happened.
  const bool delta_enabled = cached->result_cache() != nullptr;
  for (size_t step = 0; step < path.size(); ++step) {
    const geom::Aabb& box = path[step];
    geom::CollectingVisitor stepped;
    auto record = session->Step(box, stepped);
    if (!record.ok()) {
      return "Step failed: " + record.status().ToString();
    }
    std::vector<geom::ElementId> step_ids = stepped.Ids();
    std::sort(step_ids.begin(), step_ids.end());

    if (delta_enabled) {
      geom::CollectingVisitor cached_stepped;
      auto cached_record = cached->Step(box, cached_stepped);
      if (!cached_record.ok()) {
        return "cached Step failed: " + cached_record.status().ToString();
      }
      std::vector<geom::ElementId> cached_ids = cached_stepped.Ids();
      std::sort(cached_ids.begin(), cached_ids.end());
      if (cached_ids != step_ids) {
        std::ostringstream os;
        os << "cached delta session returned " << cached_ids.size()
           << " ids but the cold session returned " << step_ids.size()
           << " at walkthrough step " << step;
        return os.str();
      }
    }

    engine::RangeRequest request;
    request.box = box;
    request.backend = engine::BackendChoice::kAll;
    request.cache = engine::CachePolicy::kWarm;
    geom::CollectingVisitor ranged;
    auto report = db->Execute(request, ranged);
    if (!report.ok()) {
      return "range replay failed: " + report.status().ToString();
    }
    std::vector<geom::ElementId> range_ids = ranged.Ids();
    std::sort(range_ids.begin(), range_ids.end());

    std::ostringstream os;
    if (!report->results_match) {
      os << "backends disagree at walkthrough step " << step;
      return os.str();
    }
    if (step_ids != range_ids) {
      os << "Session::Step returned " << step_ids.size()
         << " ids but the engine range path returned " << range_ids.size()
         << " at step " << step;
      return os.str();
    }
    if (step_ids != BruteForceRangeIds(elements, box)) {
      os << "walkthrough step " << step << " disagrees with brute force";
      return os.str();
    }
  }
  return std::string();
}

/// Run `n` seeded queries from `options` through `db` (which must have a
/// circuit loaded); `elements` is the loaded dataset, used for both
/// workload anchoring and ground truth. Stops at the first divergence.
/// When `shrink_with` is non-null, a divergence additionally runs the
/// circuit shrink reducer (ShrinkDivergence) with those engine options —
/// opt-in, because a divergence injected through a custom registered
/// backend cannot reproduce on the fresh default engines the reducer
/// builds.
inline geom::ElementVec ShrinkDivergence(
    const geom::ElementVec& elements, const geom::Aabb& domain,
    const neuro::MixedWorkloadOptions& options, uint64_t failing_sub_seed,
    const engine::EngineOptions& engine_options = engine::EngineOptions(),
    size_t max_attempts = 48);

inline DiffOutcome RunDifferential(engine::QueryEngine* db,
                                   const geom::ElementVec& elements,
                                   const neuro::MixedWorkloadOptions& options,
                                   size_t n, uint64_t seed,
                                   const engine::EngineOptions* shrink_with =
                                       nullptr) {
  DiffOutcome outcome;
  std::vector<neuro::WorkloadQuery> workload =
      neuro::MixedWorkload(db->domain(), elements, options, n, seed);

  auto fail = [&](size_t i, const std::string& detail) {
    outcome.diverged = true;
    outcome.failing_index = i;
    outcome.failing_seed = workload[i].sub_seed;
    outcome.detail = detail;
  };

  for (size_t i = 0; i < workload.size(); ++i) {
    const neuro::WorkloadQuery& query = workload[i];
    ++outcome.queries_run;

    if (query.kind == neuro::QueryKind::kRange) {
      ++outcome.ranges;
      engine::RangeRequest request;
      request.box = query.box;
      request.backend = engine::BackendChoice::kAll;
      request.cache = engine::CachePolicy::kWarm;
      auto report = db->Execute(request);
      if (!report.ok()) {
        fail(i, "range request failed: " + report.status().ToString());
        break;
      }
      if (!report->results_match) {
        std::ostringstream os;
        os << "range backends disagree on box " << query.box << ":";
        for (const auto& row : report->rows) {
          os << ' ' << row.method << '=' << row.stats.results;
        }
        fail(i, os.str());
        break;
      }
      uint64_t truth = BruteForceRangeCount(elements, query.box);
      if (report->results != truth) {
        std::ostringstream os;
        os << "all backends agree on " << report->results
           << " results but brute force finds " << truth << " for box "
           << query.box;
        fail(i, os.str());
        break;
      }
    } else if (query.kind == neuro::QueryKind::kKnn) {
      ++outcome.knns;
      engine::KnnRequest request;
      request.point = query.point;
      request.k = query.k;
      request.backend = engine::BackendChoice::kAll;
      request.cache = engine::CachePolicy::kWarm;
      auto report = db->Execute(request);
      if (!report.ok()) {
        fail(i, "knn request failed: " + report.status().ToString());
        break;
      }
      if (!report->results_match) {
        std::ostringstream os;
        os << "knn backends disagree for k=" << query.k << " at ("
           << query.point.x << ", " << query.point.y << ", " << query.point.z
           << ")";
        fail(i, os.str());
        break;
      }
      std::vector<geom::KnnHit> truth =
          geom::BruteForceKnn(elements, query.point, query.k);
      if (report->hits != truth) {
        std::ostringstream os;
        os << "all backends agree but brute-force kNN differs (k=" << query.k
           << ", got " << report->hits.size() << " hits, want "
           << truth.size() << ")";
        fail(i, os.str());
        break;
      }
    } else if (query.kind == neuro::QueryKind::kWalkthrough) {
      ++outcome.walkthroughs;
      std::string error = ReplayWalkthrough(db, elements, query.path);
      if (!error.empty()) {
        fail(i, error);
        break;
      }
    } else {
      ++outcome.joins;
      engine::JoinRequest touch;
      touch.method = touch::JoinMethod::kTouch;
      touch.options.epsilon = query.epsilon;
      engine::JoinRequest sweep;
      sweep.method = touch::JoinMethod::kPlaneSweep;
      sweep.options.epsilon = query.epsilon;
      auto touch_result = db->Execute(touch);
      auto sweep_result = db->Execute(sweep);
      if (!touch_result.ok() || !sweep_result.ok()) {
        fail(i, "join failed: " +
                    (touch_result.ok() ? sweep_result.status()
                                       : touch_result.status())
                        .ToString());
        break;
      }
      std::vector<touch::JoinPair> a = touch_result->pairs;
      std::vector<touch::JoinPair> b = sweep_result->pairs;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) {
        std::ostringstream os;
        os << "TOUCH and plane sweep disagree at epsilon=" << query.epsilon
           << " (" << a.size() << " vs " << b.size() << " pairs)";
        fail(i, os.str());
        break;
      }
    }
  }
  if (outcome.diverged && shrink_with != nullptr) {
    outcome.minimized = ShrinkDivergence(elements, db->domain(), options,
                                         outcome.failing_seed, *shrink_with);
    outcome.minimized_elements = outcome.minimized.size();
    outcome.shrunk = outcome.minimized_elements < elements.size();
  }
  return outcome;
}

/// True when two per-backend statistic rows are byte-identical.
inline bool SameRow(const engine::RangeRow& a, const engine::RangeRow& b) {
  return a.method == b.method && a.stats.pages_read == b.stats.pages_read &&
         a.stats.time_us == b.stats.time_us &&
         a.stats.results == b.stats.results &&
         a.stats.elements_scanned == b.stats.elements_scanned &&
         a.stats.nodes_per_level == b.stats.nodes_per_level;
}

inline bool SameRows(const std::vector<engine::RangeRow>& a,
                     const std::vector<engine::RangeRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameRow(a[i], b[i])) return false;
  }
  return true;
}

/// Turn the range/knn queries of a seeded workload into a cold mixed batch
/// (joins and walkthroughs have no batch form and are skipped). When
/// `sub_seeds` is given it receives, per batch entry, the originating
/// query's sub_seed — the minimal-repro handle survives the filtering.
inline std::vector<engine::QueryRequest> WorkloadToBatch(
    const std::vector<neuro::WorkloadQuery>& workload,
    engine::BackendChoice backend,
    std::vector<uint64_t>* sub_seeds = nullptr) {
  std::vector<engine::QueryRequest> batch;
  batch.reserve(workload.size());
  if (sub_seeds != nullptr) sub_seeds->clear();
  for (const neuro::WorkloadQuery& query : workload) {
    if (query.kind == neuro::QueryKind::kRange) {
      engine::RangeRequest request;
      request.box = query.box;
      request.backend = backend;
      request.cache = engine::CachePolicy::kCold;
      batch.emplace_back(request);
    } else if (query.kind == neuro::QueryKind::kKnn) {
      engine::KnnRequest request;
      request.point = query.point;
      request.k = query.k;
      request.backend = backend;
      request.cache = engine::CachePolicy::kCold;
      batch.emplace_back(request);
    } else {
      continue;
    }
    if (sub_seeds != nullptr) sub_seeds->push_back(query.sub_seed);
  }
  return batch;
}

/// Concurrent-batch parity: run the same seeded workload as one cold batch
/// through `serial_db` (num_threads == 1) and `parallel_db`
/// (num_threads > 1) and demand byte-identical per-query reports — same
/// request order, same rows, same stats, same hits. Cold requests make
/// every per-query report independent of lane history, so the serial and
/// lane-partitioned runs must agree exactly.
inline DiffOutcome RunBatchParity(engine::QueryEngine* serial_db,
                                  engine::QueryEngine* parallel_db,
                                  const geom::ElementVec& elements,
                                  const neuro::MixedWorkloadOptions& options,
                                  size_t n, uint64_t seed,
                                  engine::BackendChoice backend =
                                      engine::BackendChoice::kAll) {
  DiffOutcome outcome;
  std::vector<neuro::WorkloadQuery> workload =
      neuro::MixedWorkload(serial_db->domain(), elements, options, n, seed);
  std::vector<uint64_t> sub_seeds;
  std::vector<engine::QueryRequest> batch =
      WorkloadToBatch(workload, backend, &sub_seeds);

  auto serial = serial_db->ExecuteBatch(std::span<const engine::QueryRequest>(batch));
  auto parallel =
      parallel_db->ExecuteBatch(std::span<const engine::QueryRequest>(batch));
  if (!serial.ok() || !parallel.ok()) {
    outcome.diverged = true;
    outcome.detail = "batch failed: " +
                     (serial.ok() ? parallel.status() : serial.status())
                         .ToString();
    return outcome;
  }

  outcome.queries_run = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    const engine::QueryReport& s = serial->reports[i];
    const engine::QueryReport& p = parallel->reports[i];
    std::ostringstream os;
    if (s.index() != p.index()) {
      os << "report kind mismatch at request " << i;
    } else if (const auto* sr = std::get_if<engine::RangeReport>(&s)) {
      ++outcome.ranges;
      const auto& pr = std::get<engine::RangeReport>(p);
      if (sr->results != pr.results ||
          sr->results_match != pr.results_match ||
          !SameRows(sr->rows, pr.rows)) {
        os << "range report diverges at request " << i << " (serial "
           << sr->results << " results, parallel " << pr.results << ")";
      }
    } else {
      ++outcome.knns;
      const auto& sk = std::get<engine::KnnReport>(s);
      const auto& pk = std::get<engine::KnnReport>(p);
      if (sk.hits != pk.hits || sk.results_match != pk.results_match ||
          !SameRows(sk.rows, pk.rows)) {
        os << "knn report diverges at request " << i << " (serial "
           << sk.hits.size() << " hits, parallel " << pk.hits.size() << ")";
      }
    }
    std::string detail = os.str();
    if (!detail.empty()) {
      outcome.diverged = true;
      outcome.failing_index = i;
      outcome.failing_seed = sub_seeds[i];
      outcome.detail = detail;
      return outcome;
    }
  }

  // Aggregates: totals are sums over requests in both modes, so they must
  // match exactly too (critical_path_us and lanes legitimately differ).
  if (serial->aggregate.pages_read != parallel->aggregate.pages_read ||
      serial->aggregate.results != parallel->aggregate.results ||
      serial->aggregate.time_us != parallel->aggregate.time_us ||
      serial->aggregate.pool_hits != parallel->aggregate.pool_hits ||
      serial->aggregate.pool_misses != parallel->aggregate.pool_misses) {
    outcome.diverged = true;
    outcome.detail = "batch aggregates diverge between serial and parallel";
  }
  return outcome;
}

/// Delta-query parity: every range query of a seeded workload runs through
/// the engine's CachePolicy::kDelta result-cache path — rotating the
/// backend per query, so entries cached from one backend's answer serve
/// another's delta — and its id set must be byte-identical to a cold full
/// re-query (brute force over the element list); walkthrough queries
/// replay their (deliberately overlapping) paths through a cached *and* a
/// cold session via ReplayWalkthrough. Sized by `n` (CI 1000, nightly
/// 10000 via NEURODB_DELTA_QUERIES).
inline DiffOutcome RunDeltaParity(engine::QueryEngine* db,
                                  const geom::ElementVec& elements,
                                  const neuro::MixedWorkloadOptions& options,
                                  size_t n, uint64_t seed) {
  DiffOutcome outcome;
  std::vector<neuro::WorkloadQuery> workload =
      neuro::MixedWorkload(db->domain(), elements, options, n, seed);

  auto fail = [&](size_t i, const std::string& detail) {
    outcome.diverged = true;
    outcome.failing_index = i;
    outcome.failing_seed = workload[i].sub_seed;
    outcome.detail = detail;
  };

  // Single-backend choices the delta path supports, rotated per query so
  // cache entries written after one backend's answer serve the next
  // backend's delta — the cache must be backend-agnostic.
  const engine::BackendChoice kRotation[] = {
      engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
      engine::BackendChoice::kGrid, engine::BackendChoice::kSharded};

  for (size_t i = 0; i < workload.size(); ++i) {
    const neuro::WorkloadQuery& query = workload[i];
    ++outcome.queries_run;

    if (query.kind == neuro::QueryKind::kRange) {
      ++outcome.ranges;
      engine::RangeRequest request;
      request.box = query.box;
      request.backend = kRotation[i % 4];
      request.cache = engine::CachePolicy::kDelta;
      geom::CollectingVisitor delta_out;
      auto report = db->Execute(request, delta_out);
      if (!report.ok()) {
        fail(i, "delta request failed: " + report.status().ToString());
        break;
      }
      std::vector<geom::ElementId> delta_ids = delta_out.Ids();
      std::sort(delta_ids.begin(), delta_ids.end());
      if (delta_ids != BruteForceRangeIds(elements, query.box)) {
        std::ostringstream os;
        os << "delta answer (" << delta_ids.size()
           << " ids, cache_hit_fraction=" << report->cache_hit_fraction
           << ") disagrees with a cold full re-query for box " << query.box;
        fail(i, os.str());
        break;
      }
    } else if (query.kind == neuro::QueryKind::kWalkthrough) {
      ++outcome.walkthroughs;
      std::string error = ReplayWalkthrough(db, elements, query.path);
      if (!error.empty()) {
        fail(i, error);
        break;
      }
    }
    // kKnn / kJoin take no delta path; RunDifferential covers them.
  }
  return outcome;
}

/// True when `query` (regenerated from a divergence's sub-seed) still
/// diverges on a *fresh default engine* built over `elements` — the shrink
/// reducer's predicate. Covers the query kinds a standalone engine can
/// replay (range, kNN, walkthrough); joins use circuit-level inputs a bare
/// element subset cannot express.
inline bool QueryDivergesOn(const geom::ElementVec& elements,
                            const neuro::WorkloadQuery& query,
                            const engine::EngineOptions& engine_options) {
  engine::QueryEngine db(engine_options);
  if (!db.LoadElements(elements).ok()) return false;

  if (query.kind == neuro::QueryKind::kRange) {
    engine::RangeRequest request;
    request.box = query.box;
    request.backend = engine::BackendChoice::kAll;
    request.cache = engine::CachePolicy::kWarm;
    auto report = db.Execute(request);
    if (!report.ok()) return true;
    return !report->results_match ||
           report->results != BruteForceRangeCount(elements, query.box);
  }
  if (query.kind == neuro::QueryKind::kKnn) {
    engine::KnnRequest request;
    request.point = query.point;
    request.k = query.k;
    request.backend = engine::BackendChoice::kAll;
    request.cache = engine::CachePolicy::kWarm;
    auto report = db.Execute(request);
    if (!report.ok()) return true;
    return !report->results_match ||
           report->hits != geom::BruteForceKnn(elements, query.point, query.k);
  }
  if (query.kind == neuro::QueryKind::kWalkthrough) {
    // kNone: a bare element set has no morphologies for SCOUT to extract.
    return !ReplayWalkthrough(&db, elements, query.path,
                              scout::PrefetchMethod::kNone)
                .empty();
  }
  return false;
}

/// Shrink the *circuit* behind a read-path divergence: bisect the element
/// list while the failing query (by its minimal-repro sub-seed) keeps
/// diverging on a fresh engine. Returns the reduced element subset (the
/// original list when the divergence needs state a fresh default engine
/// lacks, e.g. an injected custom backend).
inline geom::ElementVec ShrinkDivergence(
    const geom::ElementVec& elements, const geom::Aabb& domain,
    const neuro::MixedWorkloadOptions& options, uint64_t failing_sub_seed,
    const engine::EngineOptions& engine_options, size_t max_attempts) {
  // The query stays FIXED (regenerated against the original anchors); only
  // the circuit shrinks underneath it.
  neuro::WorkloadQuery query =
      neuro::MixedWorkloadQuery(domain, elements, options, failing_sub_seed);
  if (!QueryDivergesOn(elements, query, engine_options)) return elements;
  return MinimizeElements(
      elements,
      [&](const geom::ElementVec& subset) {
        return QueryDivergesOn(subset, query, engine_options);
      },
      max_attempts);
}

/// Update-parity run configuration.
struct UpdateParityOptions {
  /// Query mix; update_fraction should be > 0 to exercise mutation.
  neuro::MixedWorkloadOptions workload;
  /// Engine configuration for shrink-reducer rebuilds (the main run uses
  /// the caller's engine).
  engine::EngineOptions engine;
  /// Applied updates between Compact() calls (0 = never compact).
  size_t compact_every = 0;
  /// On divergence, bisect the circuit with full-stream replays on fresh
  /// engines (expensive; failure path only).
  bool shrink_on_divergence = false;
  size_t shrink_attempts = 24;
};

/// Replay `workload` (at most `limit` queries) through `db`, which must be
/// loaded with exactly `initial`, against a brute-force *mutable* oracle:
/// kUpdate queries flow through QueryEngine::ApplyUpdates and mutate the
/// oracle in lockstep; every range/kNN/walkthrough query is checked against
/// the oracle's live element set through the kAll parity panel AND — for
/// ranges and each update's dirty region — through the CachePolicy::kDelta
/// result-cache path, so stale cache entries surface as divergences
/// immediately after the epoch bump that should have invalidated them.
inline DiffOutcome ReplayUpdateWorkload(
    engine::QueryEngine* db, const geom::ElementVec& initial,
    const std::vector<neuro::WorkloadQuery>& workload,
    const UpdateParityOptions& options, size_t limit = SIZE_MAX) {
  DiffOutcome outcome;
  // The oracle: the live element set, ascending by id.
  geom::ElementVec live = initial;
  std::sort(live.begin(), live.end(),
            [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
              return a.id < b.id;
            });
  geom::ElementId next_id = live.empty() ? 1 : live.back().id + 1;
  auto find_live = [&](geom::ElementId id) {
    auto it = std::lower_bound(
        live.begin(), live.end(), id,
        [](const geom::SpatialElement& e, geom::ElementId v) {
          return e.id < v;
        });
    return (it != live.end() && it->id == id) ? it : live.end();
  };

  auto fail = [&](size_t i, const std::string& detail) {
    outcome.diverged = true;
    outcome.failing_index = i;
    outcome.failing_seed = workload[i].sub_seed;
    outcome.detail = detail;
  };

  const engine::BackendChoice kRotation[] = {
      engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
      engine::BackendChoice::kGrid, engine::BackendChoice::kSharded};

  // Checks one box through the delta (result-cache) path vs the oracle.
  auto check_delta_range = [&](size_t i, const geom::Aabb& box) {
    engine::RangeRequest request;
    request.box = box;
    request.backend = kRotation[i % 4];
    request.cache = engine::CachePolicy::kDelta;
    geom::CollectingVisitor out;
    auto report = db->Execute(request, out);
    if (!report.ok()) {
      return std::string("delta request failed: ") +
             report.status().ToString();
    }
    std::vector<geom::ElementId> ids = out.Ids();
    std::sort(ids.begin(), ids.end());
    if (ids != BruteForceRangeIds(live, box)) {
      std::ostringstream os;
      os << "delta answer (" << ids.size()
         << " ids, epoch=" << report->epoch
         << ") disagrees with the mutable oracle for box " << box;
      return os.str();
    }
    return std::string();
  };

  size_t applied_updates = 0;
  const size_t n = std::min(limit, workload.size());
  for (size_t i = 0; i < n; ++i) {
    const neuro::WorkloadQuery& query = workload[i];
    ++outcome.queries_run;

    if (query.kind == neuro::QueryKind::kUpdate) {
      ++outcome.updates;
      engine::UpdateRequest request;
      if (query.update_op == neuro::WorkloadUpdateOp::kInsert) {
        request.kind = engine::UpdateKind::kInsert;
        request.id = next_id++;
        request.bounds = query.box;
      } else {
        if (live.empty()) continue;  // nothing to erase/move (deterministic)
        size_t idx = static_cast<size_t>(query.update_rank % live.size());
        request.id = live[idx].id;
        if (query.update_op == neuro::WorkloadUpdateOp::kErase) {
          request.kind = engine::UpdateKind::kErase;
        } else {
          request.kind = engine::UpdateKind::kMove;
          request.bounds = query.box;
        }
      }

      storage::Epoch epoch_before = db->epoch();
      auto report =
          db->ApplyUpdates(std::span<const engine::UpdateRequest>(&request, 1));
      if (!report.ok()) {
        fail(i, "ApplyUpdates failed: " + report.status().ToString());
        break;
      }
      if (report->epoch != epoch_before + 1 || db->epoch() != report->epoch) {
        fail(i, "epoch did not advance by one across the update batch");
        break;
      }
      ++applied_updates;

      // Mutate the oracle in lockstep.
      if (request.kind == engine::UpdateKind::kInsert) {
        live.emplace_back(request.id, request.bounds);
        std::sort(live.begin(), live.end(),
                  [](const geom::SpatialElement& a,
                     const geom::SpatialElement& b) { return a.id < b.id; });
      } else if (request.kind == engine::UpdateKind::kErase) {
        auto it = find_live(request.id);
        if (it != live.end()) live.erase(it);
      } else {
        auto it = find_live(request.id);
        if (it != live.end()) it->bounds = request.bounds;
      }

      // Cache-invalidation check after the epoch bump: the dirty region
      // itself, through the delta path — a cache entry the invalidation
      // missed answers this box stale.
      if (report->dirty.IsValid()) {
        std::string error = check_delta_range(i, report->dirty.Expanded(1.0f));
        if (!error.empty()) {
          fail(i, "post-update " + error);
          break;
        }
      }

      if (options.compact_every > 0 &&
          applied_updates % options.compact_every == 0) {
        Status compacted = db->Compact();
        if (!compacted.ok()) {
          fail(i, "Compact failed: " + compacted.ToString());
          break;
        }
        if (db->DeltaSize() != 0) {
          fail(i, "Compact left a non-empty delta");
          break;
        }
        if (report->dirty.IsValid()) {
          std::string error =
              check_delta_range(i, report->dirty.Expanded(1.0f));
          if (!error.empty()) {
            fail(i, "post-compact " + error);
            break;
          }
        }
      }
    } else if (query.kind == neuro::QueryKind::kRange) {
      ++outcome.ranges;
      engine::RangeRequest request;
      request.box = query.box;
      request.backend = engine::BackendChoice::kAll;
      request.cache = engine::CachePolicy::kWarm;
      geom::CollectingVisitor out;
      auto report = db->Execute(request, out);
      if (!report.ok()) {
        fail(i, "range request failed: " + report.status().ToString());
        break;
      }
      if (!report->results_match) {
        std::ostringstream os;
        os << "range backends disagree on box " << query.box << " at epoch "
           << report->epoch << ":";
        for (const auto& row : report->rows) {
          os << ' ' << row.method << '=' << row.stats.results;
        }
        fail(i, os.str());
        break;
      }
      std::vector<geom::ElementId> ids = out.Ids();
      std::sort(ids.begin(), ids.end());
      if (ids != BruteForceRangeIds(live, query.box)) {
        std::ostringstream os;
        os << "all backends agree on " << ids.size()
           << " results but the mutable oracle finds "
           << BruteForceRangeCount(live, query.box) << " for box "
           << query.box;
        fail(i, os.str());
        break;
      }
      std::string error = check_delta_range(i, query.box);
      if (!error.empty()) {
        fail(i, error);
        break;
      }
    } else if (query.kind == neuro::QueryKind::kKnn) {
      ++outcome.knns;
      engine::KnnRequest request;
      request.point = query.point;
      request.k = query.k;
      request.backend = engine::BackendChoice::kAll;
      request.cache = engine::CachePolicy::kWarm;
      auto report = db->Execute(request);
      if (!report.ok()) {
        fail(i, "knn request failed: " + report.status().ToString());
        break;
      }
      if (!report->results_match ||
          report->hits != geom::BruteForceKnn(live, query.point, query.k)) {
        std::ostringstream os;
        os << "knn diverges from the mutable oracle (k=" << query.k
           << ", epoch=" << report->epoch << ")";
        fail(i, os.str());
        break;
      }
    } else if (query.kind == neuro::QueryKind::kWalkthrough) {
      ++outcome.walkthroughs;
      // kNone: LoadElements-built engines have no SCOUT skeletons; the
      // point here is session-vs-engine-vs-oracle parity under mutation.
      std::string error = ReplayWalkthrough(db, live, query.path,
                                            scout::PrefetchMethod::kNone);
      if (!error.empty()) {
        fail(i, error);
        break;
      }
    } else {
      // kJoin: join inputs are circuit-level and static — RunDifferential
      // covers them; an update stream has nothing to check there.
      ++outcome.joins;
    }
  }
  return outcome;
}

/// Mutation parity (the update-path twin of RunDifferential): a seeded
/// interleaved update/query stream through every registered backend vs a
/// brute-force mutable oracle, with a CachePolicy::kDelta invalidation
/// check after every epoch bump and optional periodic compaction. On
/// divergence, optionally shrinks the *initial circuit* with full-stream
/// replays on fresh engines (UpdateParityOptions::shrink_on_divergence).
/// `db` must be loaded with exactly `elements`.
inline DiffOutcome RunUpdateParity(engine::QueryEngine* db,
                                   const geom::ElementVec& elements,
                                   const UpdateParityOptions& options,
                                   size_t n, uint64_t seed) {
  std::vector<neuro::WorkloadQuery> workload =
      neuro::MixedWorkload(db->domain(), elements, options.workload, n, seed);
  DiffOutcome outcome = ReplayUpdateWorkload(db, elements, workload, options);
  if (outcome.diverged && options.shrink_on_divergence) {
    UpdateParityOptions inner = options;
    inner.shrink_on_divergence = false;
    const size_t limit = outcome.failing_index + 1;
    outcome.minimized = MinimizeElements(
        elements,
        [&](const geom::ElementVec& subset) {
          engine::QueryEngine fresh(inner.engine);
          if (!fresh.LoadElements(subset).ok()) return false;
          return ReplayUpdateWorkload(&fresh, subset, workload, inner, limit)
              .diverged;
        },
        options.shrink_attempts);
    outcome.minimized_elements = outcome.minimized.size();
    outcome.shrunk = outcome.minimized_elements < elements.size();
  }
  return outcome;
}

/// Concurrent reader/writer run configuration.
struct ConcurrentReaderOptions {
  /// Reader threads issuing kAll range/kNN queries while the writer runs.
  size_t readers = 4;
  size_t queries_per_reader = 48;
  /// Scripted writer batches and their size.
  size_t batches = 32;
  size_t ops_per_batch = 6;
  /// Applied batches between Compact() calls (0 = never compact).
  size_t compact_every = 0;
  /// Fraction of reader queries that are kNN instead of range.
  double knn_fraction = 0.3;
  /// A read that fails with kOutOfRange (its epoch retired from the
  /// retention window) re-pins and retries, at most this many times per
  /// query before reporting the query as failed. Every retry is counted in
  /// DiffOutcome::retired_retries.
  size_t max_retries = 64;
};

/// Snapshot-read differential under real concurrency: one writer thread
/// streams pre-scripted update batches through QueryEngine::ApplyUpdates
/// (alternating the synchronous and the Async worker path, with optional
/// periodic Compact) while `readers` threads issue BackendChoice::kAll
/// range/kNN queries. Every reader records the epoch the engine pinned its
/// query at; after both sides join, each recorded answer is checked against
/// a brute-force oracle evaluated over the scripted live set *at that
/// epoch* — so a query that raced ApplyUpdates must still have returned the
/// byte-identical answer a quiesced engine at its pinned epoch would give.
/// Cross-backend parity (results_match) is asserted per query as well.
/// Designed to run under TSan: readers never synchronize with the writer
/// except through the engine itself.
inline DiffOutcome RunConcurrentReaders(engine::QueryEngine* db,
                                        const geom::ElementVec& elements,
                                        const ConcurrentReaderOptions& options,
                                        uint64_t seed) {
  DiffOutcome outcome;

  // ---- Script the writer deterministically, before any thread starts:
  // per batch the concrete update requests. Snapshot j, the oracle live set
  // after j batches (snapshot 0 = the initial load), is replayed from the
  // script at verdict time.
  std::vector<std::vector<engine::UpdateRequest>> batches(options.batches);
  geom::ElementVec initial = elements;
  std::sort(initial.begin(), initial.end(),
            [](const geom::SpatialElement& a, const geom::SpatialElement& b) {
              return a.id < b.id;
            });
  {
    geom::ElementVec live = initial;
    geom::ElementId next_id = live.empty() ? 1 : live.back().id + 1;
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const geom::Aabb domain = db->domain();
    std::uniform_real_distribution<float> ux(domain.min.x, domain.max.x);
    std::uniform_real_distribution<float> uy(domain.min.y, domain.max.y);
    std::uniform_real_distribution<float> uz(domain.min.z, domain.max.z);
    const float extent = std::max(
        {domain.max.x - domain.min.x, domain.max.y - domain.min.y,
         domain.max.z - domain.min.z, 1.0f});
    std::uniform_real_distribution<float> uside(0.02f * extent,
                                                0.08f * extent);
    for (auto& batch : batches) {
      for (size_t op = 0; op < options.ops_per_batch; ++op) {
        engine::UpdateRequest request;
        uint64_t kind = rng() % 10;
        if (live.empty() || kind < 4) {
          request.kind = engine::UpdateKind::kInsert;
          request.id = next_id++;
          request.bounds =
              geom::Aabb::Cube(geom::Vec3(ux(rng), uy(rng), uz(rng)),
                               uside(rng));
          live.emplace_back(request.id, request.bounds);
        } else {
          size_t idx = static_cast<size_t>(rng() % live.size());
          request.id = live[idx].id;
          if (kind < 7) {
            request.kind = engine::UpdateKind::kErase;
            live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
          } else {
            request.kind = engine::UpdateKind::kMove;
            request.bounds =
                geom::Aabb::Cube(geom::Vec3(ux(rng), uy(rng), uz(rng)),
                                 uside(rng));
            live[idx].bounds = request.bounds;
          }
        }
        batch.push_back(request);
      }
    }
  }

  // ---- Writer thread: applies the script and records which engine epoch
  // corresponds to which oracle snapshot. Only the writer touches this map
  // while threads run; the main thread reads it after join().
  std::unordered_map<storage::Epoch, size_t> snapshot_at_epoch;
  snapshot_at_epoch[db->epoch()] = 0;
  std::string writer_error;
  // Every thread starts at once, so the writer's commits overlap the reads.
  std::atomic<bool> go{false};
  auto await_go = [&go] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  std::thread writer([&] {
    await_go();
    size_t applied = 0;
    for (size_t j = 0; j < batches.size(); ++j) {
      Result<engine::UpdateReport> report =
          (j % 2 == 0)
              ? db->ApplyUpdates(std::span<const engine::UpdateRequest>(
                    batches[j]))
              : db->ApplyUpdatesAsync(batches[j]).get();
      if (!report.ok()) {
        writer_error = "ApplyUpdates failed at batch " + std::to_string(j) +
                       ": " + report.status().ToString();
        return;
      }
      snapshot_at_epoch[report->epoch] = j + 1;
      ++applied;
      if (options.compact_every > 0 &&
          applied % options.compact_every == 0) {
        Status compacted =
            (j % 2 == 0) ? db->Compact() : db->CompactAsync().get();
        if (!compacted.ok()) {
          writer_error = "Compact failed after batch " + std::to_string(j) +
                         ": " + compacted.ToString();
          return;
        }
        // Compaction changes no answers — the new epoch answers from the
        // same live set as the epoch before it.
        snapshot_at_epoch[db->epoch()] = j + 1;
      }
      std::this_thread::yield();
    }
  });

  // ---- Reader threads: kAll cold queries, each recording the epoch the
  // engine pinned it at plus its full sorted answer.
  struct Observation {
    storage::Epoch epoch = 0;
    bool is_knn = false;
    geom::Aabb box;
    geom::Vec3 point;
    size_t k = 0;
    std::vector<geom::ElementId> ids;
    std::vector<geom::KnnHit> hits;
    bool backends_matched = true;
    std::string error;  // non-retryable failure
  };
  std::vector<std::vector<Observation>> observed(options.readers);
  std::vector<size_t> retries(options.readers, 0);
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(options.readers);
  for (size_t r = 0; r < options.readers; ++r) {
    reader_threads.emplace_back([&, r] {
      await_go();
      std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1000003ull * (r + 2));
      const geom::Aabb domain = db->domain();
      std::uniform_real_distribution<float> ux(domain.min.x, domain.max.x);
      std::uniform_real_distribution<float> uy(domain.min.y, domain.max.y);
      std::uniform_real_distribution<float> uz(domain.min.z, domain.max.z);
      const float extent = std::max(
          {domain.max.x - domain.min.x, domain.max.y - domain.min.y,
           domain.max.z - domain.min.z, 1.0f});
      std::uniform_real_distribution<float> uside(0.05f * extent,
                                                  0.20f * extent);
      for (size_t q = 0; q < options.queries_per_reader; ++q) {
        Observation ob;
        ob.is_knn =
            (static_cast<double>(rng() % 1000) / 1000.0) < options.knn_fraction;
        ob.box = geom::Aabb::Cube(geom::Vec3(ux(rng), uy(rng), uz(rng)),
                                  uside(rng));
        ob.point = geom::Vec3(ux(rng), uy(rng), uz(rng));
        ob.k = 1 + static_cast<size_t>(rng() % 8);
        for (size_t attempt = 0;; ++attempt) {
          Status failed = Status::OK();
          if (ob.is_knn) {
            engine::KnnRequest request;
            request.point = ob.point;
            request.k = ob.k;
            request.backend = engine::BackendChoice::kAll;
            request.cache = engine::CachePolicy::kCold;
            auto report = db->Execute(request);
            if (report.ok()) {
              ob.epoch = report->epoch;
              ob.hits = report->hits;
              ob.backends_matched = report->results_match;
              break;
            }
            failed = report.status();
          } else {
            engine::RangeRequest request;
            request.box = ob.box;
            request.backend = engine::BackendChoice::kAll;
            request.cache = engine::CachePolicy::kCold;
            geom::CollectingVisitor out;
            auto report = db->Execute(request, out);
            if (report.ok()) {
              ob.epoch = report->epoch;
              ob.ids = out.Ids();
              std::sort(ob.ids.begin(), ob.ids.end());
              ob.backends_matched = report->results_match;
              break;
            }
            failed = report.status();
          }
          // Retired-epoch reads re-pin at the newest epoch and try again;
          // anything else is a genuine failure.
          if (failed.code() != StatusCode::kOutOfRange ||
              attempt >= options.max_retries) {
            ob.error = failed.ToString();
            break;
          }
          ++retries[r];
        }
        observed[r].push_back(std::move(ob));
      }
    });
  }

  go.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : reader_threads) t.join();
  for (size_t count : retries) outcome.retired_retries += count;

  if (!writer_error.empty()) {
    outcome.diverged = true;
    outcome.detail = writer_error;
    return outcome;
  }

  // ---- Offline verdict: every recorded answer must equal the quiesced
  // oracle at its pinned epoch. Answers are checked in script order while
  // one live set replays the batches.
  struct Checked {
    size_t snapshot = 0;
    size_t reader = 0;
    size_t query = 0;
  };
  std::vector<Checked> order;
  auto prefix = [&](size_t r, size_t q) {
    std::ostringstream os;
    os << "reader " << r << " query " << q << " (epoch "
       << observed[r][q].epoch << "): ";
    return os.str();
  };
  for (size_t r = 0; r < observed.size(); ++r) {
    for (size_t q = 0; q < observed[r].size(); ++q) {
      const Observation& ob = observed[r][q];
      ++outcome.queries_run;
      if (!ob.error.empty()) {
        outcome.diverged = true;
        outcome.detail = prefix(r, q) + ob.error;
        return outcome;
      }
      if (!ob.backends_matched) {
        outcome.diverged = true;
        outcome.detail = prefix(r, q) + "backends disagree at the pinned epoch";
        return outcome;
      }
      auto snap = snapshot_at_epoch.find(ob.epoch);
      if (snap == snapshot_at_epoch.end()) {
        outcome.diverged = true;
        outcome.detail = prefix(r, q) +
                         "query pinned an epoch the writer never published";
        return outcome;
      }
      order.push_back(Checked{snap->second, r, q});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Checked& a, const Checked& b) {
                     return a.snapshot < b.snapshot;
                   });
  geom::ElementVec live = std::move(initial);
  size_t replayed = 0;
  for (const Checked& check : order) {
    for (; replayed < check.snapshot; ++replayed) {
      for (const engine::UpdateRequest& u : batches[replayed]) {
        if (u.kind == engine::UpdateKind::kInsert) {
          live.emplace_back(u.id, u.bounds);
          continue;
        }
        auto it = std::find_if(
            live.begin(), live.end(),
            [&u](const geom::SpatialElement& e) { return e.id == u.id; });
        if (u.kind == engine::UpdateKind::kErase) {
          live.erase(it);
        } else {
          it->bounds = u.bounds;
        }
      }
    }
    const Observation& ob = observed[check.reader][check.query];
    std::ostringstream os;
    os << prefix(check.reader, check.query);
    if (ob.is_knn) {
      ++outcome.knns;
      if (ob.hits != geom::BruteForceKnn(live, ob.point, ob.k)) {
        outcome.diverged = true;
        os << "kNN answer (k=" << ob.k << ", " << ob.hits.size()
           << " hits) disagrees with the quiesced oracle at its epoch";
        outcome.detail = os.str();
        return outcome;
      }
    } else {
      ++outcome.ranges;
      if (ob.ids != BruteForceRangeIds(live, ob.box)) {
        outcome.diverged = true;
        os << "range answer (" << ob.ids.size() << " ids, box " << ob.box
           << ") disagrees with the quiesced oracle at its epoch";
        outcome.detail = os.str();
        return outcome;
      }
    }
  }
  outcome.updates = options.batches * options.ops_per_batch;
  return outcome;
}

}  // namespace testing
}  // namespace neurodb

#endif  // NEURODB_TESTS_DIFF_HARNESS_H_
