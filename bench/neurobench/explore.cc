// explore_scout: SCOUT prefetching and the session result cache.
//
// One scientist explores the 10^6-element column: sessions opened with
// OpenSession(kScout, kDelta) run one after another, in passes over a
// fixed pool of 25. Four in five follow a neuron's longest branch (10 µm
// steps, 30 µm cubes); every fifth is a 60-step random walk, the
// adversarial case for prediction. Think time is modeled on the session's
// SimClock, so nothing sleeps. The op is one Session::Step; the measured
// window is the time spent inside sessions.
//
// Traced, kept sessions are replayed with kNone (what SCOUT costs and
// saves), and their boxes through DeltaPlanner and FlatIndex directly.

#include <algorithm>
#include <cstdio>

#include "cache/delta_planner.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "neurobench.h"

namespace neurobench {
namespace {

constexpr uint32_t kColumnNeurons = 2400;
constexpr float kStepUm = 10.0f;
constexpr float kCubeUm = 30.0f;
constexpr size_t kRandomWalkSteps = 60;
/// The session pool: four in five sessions follow a branch.
constexpr uint32_t kBranchSessions = 20;
constexpr uint64_t kWalkSessions = 5;
/// Every kCheckEvery-th step is checked against a cold kFlat Execute.
constexpr uint64_t kCheckEvery = 50;
/// Traced: every kReplayEvery-th session is replayed layer by layer.
constexpr uint64_t kReplayEvery = 4;

using SessionBoxes = std::vector<geom::Aabb>;

/// The sessions every pass replays: branches of neurons spread evenly over
/// the column's gids, and random walks. Steps range from cache hits of a
/// few µs to crawls of milliseconds, so which sessions run moves the step
/// median a lot; every run therefore replays this one set, and --seed
/// orders it.
std::vector<SessionBoxes> SessionPool(const neuro::Circuit& circuit,
                                      const geom::Aabb& domain) {
  std::vector<SessionBoxes> pool;
  const uint32_t n = static_cast<uint32_t>(circuit.NumNeurons());
  for (uint32_t b = 0; b < kBranchSessions; ++b) {
    for (uint32_t gid = b * (n / kBranchSessions); gid < n; ++gid) {
      auto path = neuro::FollowBranchPath(circuit, gid, kStepUm, 0);
      if (path.ok()) {
        pool.push_back(neuro::PathQueries(*path, kCubeUm));
        break;
      }
    }
  }
  for (uint64_t w = 0; w < kWalkSessions; ++w) {
    pool.push_back(neuro::PathQueries(
        neuro::RandomWalkPath(domain, kRandomWalkSteps, kStepUm,
                              Mix(kCircuitSeed, w)),
        kCubeUm));
  }
  return pool;
}

struct StepLog {
  uint64_t index = 0;
  double us = 0.0;
  scout::StepRecord record;
  uint64_t span = 0;
};

struct SessionLog {
  const SessionBoxes* boxes = nullptr;
  std::vector<StepLog> steps;
};

struct Window {
  Samples steps;
  double seconds = 0.0;
  uint64_t sessions = 0;
  uint64_t stall_us = 0, pages_hit = 0, pages_missed = 0, prefetched = 0;
  uint64_t prefetched_pages = 0, prefetch_used = 0;
  double cover_sum = 0.0, residual_sum = 0.0;
  /// Each pass's steps and session time.
  std::vector<std::pair<Samples, double>> passes;
  std::vector<SessionLog> kept;
  std::vector<std::pair<geom::Aabb, uint64_t>> checks;
};

/// Whole passes over `pool`, each in its own seeded order, until `seconds`
/// of session time pass. Path generation is input preparation: only
/// OpenSession and the steps are timed. With `spans`, every step is a root
/// span and every kReplayEvery-th session is kept for replay.
Window RunPasses(engine::QueryEngine& db, const std::vector<SessionBoxes>& pool,
                 uint64_t seed, uint64_t* pass, double seconds,
                 SpanRecorder* spans, Report* report) {
  Window w;
  uint64_t busy_ns = 0;
  uint64_t step_index = 0;
  while (busy_ns < seconds * 1e9) {
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Pcg32 rng(Mix(seed, (*pass)++));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    Samples pass_steps;
    uint64_t pass_ns = 0;
    for (size_t i : order) {
      SessionLog log;
      log.boxes = &pool[i];
      const uint64_t t0 = NowNs();
      Result<engine::Session> session = [&] {
        ScopedSpan s(spans, "engine.open_session", w.sessions);
        return db.OpenSession(scout::PrefetchMethod::kScout,
                              engine::CachePolicy::kDelta);
      }();
      report->Attempt();
      if (!session.ok()) {
        report->Fail("OpenSession: " + session.status().ToString());
        return w;
      }
      for (const geom::Aabb& box : pool[i]) {
        const uint64_t index = step_index++;
        StepLog step;
        step.index = index;
        const uint64_t s0 = NowNs();
        Result<scout::StepRecord> record = [&] {
          ScopedSpan s(spans, "engine.step", index);
          step.span = s.id();
          return session->Step(box);
        }();
        step.us = (NowNs() - s0) / 1e3;
        report->Attempt();
        if (!record.ok()) {
          report->Fail("Session::Step: " + record.status().ToString());
          return w;
        }
        step.record = *record;
        pass_steps.Add(step.us);
        w.stall_us += record->stall_us;
        w.pages_hit += record->pages_hit;
        w.pages_missed += record->pages_missed;
        w.prefetched += record->prefetched;
        w.cover_sum += record->cache_hit_fraction;
        w.residual_sum += record->delta_volume_fraction;
        if (index % kCheckEvery == 0) {
          w.checks.emplace_back(box, record->results);
        }
        log.steps.push_back(std::move(step));
      }
      const scout::SessionResult summary = session->Summary();
      pass_ns += NowNs() - t0;
      w.prefetched_pages += summary.prefetch_issued;
      w.prefetch_used += summary.prefetch_used;
      if (spans != nullptr && w.sessions % kReplayEvery == 0) {
        w.kept.push_back(std::move(log));
      }
      ++w.sessions;
    }
    busy_ns += pass_ns;
    w.steps.Append(pass_steps);
    w.passes.emplace_back(std::move(pass_steps), pass_ns / 1e9);
  }
  w.seconds = busy_ns / 1e9;
  return w;
}

/// Every checked step's result count against a cold kFlat Execute.
void CheckSteps(engine::QueryEngine& db, const Window& w, Report* report) {
  for (const auto& [box, results] : w.checks) {
    report->Attempt();
    engine::RangeRequest request;
    request.box = box;
    request.backend = engine::BackendChoice::kFlat;
    request.cache = engine::CachePolicy::kCold;
    auto r = db.Execute(request);
    if (!r.ok() || r->results != results) {
      report->Fail("step result count differs from a cold kFlat query");
    }
  }
}

/// The kept sessions again with kNone: what SCOUT's think-time work costs
/// in wall time and saves in modeled stall.
void ReplayWithoutPrefetch(engine::QueryEngine& db, const Window& w,
                           Report* report) {
  Samples scout_us, none_us;
  uint64_t scout_stall = 0, none_stall = 0, steps = 0;
  for (const SessionLog& log : w.kept) {
    auto session = db.OpenSession(scout::PrefetchMethod::kNone,
                                  engine::CachePolicy::kDelta);
    report->Attempt();
    if (!session.ok()) {
      report->Fail("OpenSession(kNone): " + session.status().ToString());
      return;
    }
    for (size_t s = 0; s < log.steps.size(); ++s) {
      const uint64_t t0 = NowNs();
      auto record = session->Step((*log.boxes)[s]);
      none_us.Add((NowNs() - t0) / 1e3);
      report->Attempt();
      if (!record.ok()) {
        report->Fail("kNone step: " + record.status().ToString());
        return;
      }
      scout_us.Add(log.steps[s].us);
      scout_stall += log.steps[s].record.stall_us;
      none_stall += record->stall_us;
      ++steps;
    }
  }
  report->Set("scout.prefetch_us_per_step", scout_us.Mean() - none_us.Mean(),
              "us");
  report->Set("scout.stall_saved_sim_us",
              Ratio(static_cast<double>(none_stall) - scout_stall, steps),
              "us");
}

/// The kept step boxes through DeltaPlanner and FlatIndex directly, over a
/// replica of the session's result cache and pool. Both calls are child
/// spans of the step they replay.
void ReplayCacheAndFlat(engine::QueryEngine& db, const Window& w,
                        SpanRecorder* spans, Report* report) {
  const flat::FlatIndex& index = db.flat_index();
  const scout::SessionOptions& session_options = db.options().session;
  uint64_t queries = 0, seed_nodes = 0, crawl_pages = 0;
  for (const SessionLog& log : w.kept) {
    cache::ResultCache replica(db.options().result_cache_boxes);
    storage::BufferPool pool(db.flat_backend()->store(),
                             session_options.pool_pages);
    for (size_t s = 0; s < log.steps.size(); ++s) {
      const geom::Aabb& box = (*log.boxes)[s];
      const uint64_t parent = log.steps[s].span;
      const uint64_t request = log.steps[s].index;
      const uint64_t t0 = NowNs();
      const cache::DeltaPlan plan = cache::DeltaPlanner::Plan(replica, box);
      spans->Add("cache.plan", parent, request, t0, NowNs());
      geom::ElementVec residual_results;
      for (const geom::Aabb& residual : plan.residuals) {
        geom::CollectingVisitor out;
        flat::FlatQueryStats stats;
        const uint64_t f0 = NowNs();
        Status status = index.RangeQuery(residual, &pool, out, &stats);
        spans->Add("flat.range", parent, request, f0, NowNs());
        if (!status.ok()) {
          report->Fail("FlatIndex replay: " + status.ToString());
          return;
        }
        ++queries;
        seed_nodes += stats.seed_nodes_visited;
        crawl_pages += stats.data_pages_read;
        geom::ElementVec part = out.TakeElements();
        residual_results.insert(residual_results.end(), part.begin(),
                                part.end());
      }
      geom::ElementVec merged;
      if (plan.source) {
        merged = cache::DeltaPlanner::MergeById(replica.entry(*plan.source),
                                                box,
                                                std::move(residual_results));
      } else {
        merged = std::move(residual_results);
        cache::SortById(&merged);
      }
      replica.Insert(box, std::move(merged));
    }
  }
  report->Set("cache.plan_us", spans->MeanUs("cache.plan"), "us");
  report->Set("flat.range_us", spans->MeanUs("flat.range"), "us");
  report->Set("flat.seed_nodes_per_query", Ratio(seed_nodes, queries),
              "nodes");
  report->Set("flat.crawl_pages_per_query", Ratio(crawl_pages, queries),
              "pages");
}

}  // namespace

bool RunExploreScout(const Options& options, Report* report) {
  const engine::EngineOptions engine_options;
  const uint64_t seed = Mix(options.seed, 3);
  Column column;
  double setup[2];
  uint64_t pass = 0;

  if (!options.trace) {
    Samples setup_s;
    Slices slices;
    uint64_t steps = 0, stall_us = 0, sessions = 0;
    for (int k = 0; k < kEngines; ++k) {
      if (!LoadColumn(kColumnNeurons, engine_options, &column, setup)) {
        return false;
      }
      setup_s.Add(setup[0] + setup[1]);
      const std::vector<SessionBoxes> pool =
          SessionPool(column.circuit, column.db->domain());
      Window w = RunPasses(*column.db, pool, seed, &pass,
                           options.seconds / kEngines, nullptr, report);
      for (const auto& [ops, seconds] : w.passes) slices.Add(ops, seconds);
      steps += w.steps.size();
      stall_us += w.stall_us;
      sessions += w.sessions;
      CheckSteps(*column.db, w, report);
    }
    report->Set("setup_s", setup_s.Percentile(50), "s");
    slices.SetOpMetrics(report);
    report->Set("step_stall_sim_us", Ratio(stall_us, steps), "us");
    report->Set("sessions", sessions, "count");
    return true;
  }

  if (!LoadColumn(kColumnNeurons, engine_options, &column, setup)) {
    return false;
  }
  report->Set("setup.generate_s", setup[0], "s");
  report->Set("setup.load_s", setup[1], "s");
  MeasureBackendBuilds(column.elements, engine_options, report);
  engine::QueryEngine& db = *column.db;
  const std::vector<SessionBoxes> pool =
      SessionPool(column.circuit, db.domain());
  SpanRecorder spans;
  Window plain = RunPasses(db, pool, seed, &pass, options.seconds / 2, nullptr,
                           report);
  Window traced = RunPasses(db, pool, seed, &pass, options.seconds / 2, &spans,
                            report);
  CheckSteps(db, plain, report);
  CheckSteps(db, traced, report);

  const double steps = static_cast<double>(traced.steps.size());
  report->Set("engine.session_open_us", spans.MeanUs("engine.open_session"),
              "us");
  report->Set("cache.step_hit_fraction", Ratio(traced.cover_sum, steps),
              "ratio");
  report->Set("cache.delta_volume_fraction",
              Ratio(traced.residual_sum, steps), "ratio");
  report->Set("scout.stall_sim_us", Ratio(traced.stall_us, steps), "us");
  report->Set("scout.prefetched_per_step", Ratio(traced.prefetched, steps),
              "pages");
  report->Set("scout.prefetch_precision",
              Ratio(traced.prefetch_used, traced.prefetched_pages), "ratio");
  report->Set("storage.pool_hit_ratio",
              Ratio(traced.pages_hit, traced.pages_hit + traced.pages_missed),
              "ratio");
  report->Set("storage.pool_misses_per_query",
              Ratio(traced.pages_missed, steps), "pages");
  ReplayWithoutPrefetch(db, traced, report);
  ReplayCacheAndFlat(db, traced, &spans, report);
  report->Set("trace.overhead_pct", OverheadPct(plain.steps, traced.steps),
              "%");
  report->Set("trace.coverage", spans.Coverage(), "ratio");
  WriteTrace(options, spans);
  return true;
}

}  // namespace neurobench
