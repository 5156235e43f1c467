// SCOUT's think time, stage by stage (paper Section 3.1: the skeleton is
// rebuilt "while the result of query q is loaded", so this work has to stay
// small next to the query).
//
// Explores a cortical column the way neurobench's explore_scout does:
// sessions that follow a neuron's longest branch (10 µm steps, 30 µm cubes)
// and random walks, each opened once cached (kDelta: results arrive in id
// order) and once uncached (kCold: results arrive in crawl order). Every
// step's (box, result ids) is recorded, then replayed outside the session:
//
//   skeleton — scout::ExtractStructures over the step's result;
//   think    — a fresh SCOUT prefetcher's AfterQuery over each session's
//              steps in order (skeleton, candidate pruning, predicted
//              boxes and their page prefetches into a fresh pool).
//
// Each row reports µs per step (the fastest of a few replays), results per
// step and structures per step, per (result order, path kind, stage), and
// goes to BENCH_scout_think.json. Under NEURODB_BENCH_SMOKE=1 the column
// has 240 neurons (~10^5 elements); otherwise 2,400 (~10^6, the
// explore_scout column). The bench fails only when a call fails; times are
// reported, not gated.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "engine/query_engine.h"
#include "neuro/workload.h"
#include "scout/prefetcher.h"
#include "scout/structure.h"

using namespace neurodb;
using geom::Aabb;
using geom::ElementId;

namespace {

struct RecordedStep {
  Aabb box;
  std::vector<ElementId> ids;
};

using RecordedSession = std::vector<RecordedStep>;

/// Runs `paths` through engine sessions under `policy` and records each
/// step's box and result ids in the order the session's prefetcher saw
/// them. Returns false on a failed call.
bool Record(engine::QueryEngine& db, engine::CachePolicy policy,
            const std::vector<std::vector<Aabb>>& paths,
            std::vector<RecordedSession>* out) {
  for (const std::vector<Aabb>& path : paths) {
    auto session = db.OpenSession(scout::PrefetchMethod::kScout, policy);
    if (!session.ok()) {
      std::fprintf(stderr, "OpenSession: %s\n",
                   session.status().ToString().c_str());
      return false;
    }
    RecordedSession recorded;
    for (const Aabb& box : path) {
      RecordedStep step{box, {}};
      geom::VectorVisitor visitor(&step.ids);
      auto record = session->Step(box, visitor);
      if (!record.ok()) {
        std::fprintf(stderr, "Session::Step: %s\n",
                     record.status().ToString().c_str());
        return false;
      }
      recorded.push_back(std::move(step));
    }
    out->push_back(std::move(recorded));
  }
  return true;
}

struct StageTime {
  double us_per_step = 0.0;
  double results_per_step = 0.0;
  double structures_per_step = 0.0;
  size_t steps = 0;
};

/// ExtractStructures over every recorded step, fastest of `reps` replays.
bool TimeSkeleton(const engine::QueryEngine& db,
                  const std::vector<RecordedSession>& sessions, int reps,
                  StageTime* out) {
  uint64_t best_ns = UINT64_MAX;
  size_t steps = 0, results = 0, structures = 0;
  for (int rep = 0; rep < reps; ++rep) {
    steps = results = structures = 0;
    Timer timer;
    for (const RecordedSession& session : sessions) {
      for (const RecordedStep& step : session) {
        auto got = scout::ExtractStructures(step.ids, db.resolver(), step.box);
        if (!got.ok()) {
          std::fprintf(stderr, "ExtractStructures: %s\n",
                       got.status().ToString().c_str());
          return false;
        }
        ++steps;
        results += step.ids.size();
        structures += got->size();
      }
    }
    best_ns = std::min(best_ns, timer.ElapsedNanos());
  }
  out->steps = steps;
  out->us_per_step = steps > 0 ? best_ns / 1e3 / steps : 0.0;
  out->results_per_step = steps > 0 ? static_cast<double>(results) / steps : 0;
  out->structures_per_step =
      steps > 0 ? static_cast<double>(structures) / steps : 0.0;
  return true;
}

/// A fresh SCOUT prefetcher and pool per session, AfterQuery on every step
/// with the engine's session budget, fastest of `reps` replays. Structures
/// per step is the prefetcher's candidate count here.
bool TimeThink(engine::QueryEngine& db,
               const std::vector<RecordedSession>& sessions, int reps,
               StageTime* out) {
  const scout::SessionOptions& options = db.options().session;
  uint64_t best_ns = UINT64_MAX;
  size_t steps = 0, results = 0, candidates = 0;
  for (int rep = 0; rep < reps; ++rep) {
    steps = results = candidates = 0;
    uint64_t ns = 0;
    for (const RecordedSession& session : sessions) {
      storage::BufferPool pool(db.flat_backend()->store(), options.pool_pages);
      scout::PrefetchContext ctx;
      ctx.index = &db.flat_index();
      ctx.pool = &pool;
      ctx.resolver = &db.resolver();
      auto prefetcher =
          scout::MakePrefetcher(scout::PrefetchMethod::kScout, ctx,
                                options.scout);
      if (!prefetcher.ok()) {
        std::fprintf(stderr, "MakePrefetcher: %s\n",
                     prefetcher.status().ToString().c_str());
        return false;
      }
      Timer timer;
      for (const RecordedStep& step : session) {
        (*prefetcher)->AfterQuery(step.box, step.ids,
                                  options.PrefetchBudget());
        ++steps;
        results += step.ids.size();
        candidates += (*prefetcher)->CandidateCount();
      }
      ns += timer.ElapsedNanos();
    }
    best_ns = std::min(best_ns, ns);
  }
  out->steps = steps;
  out->us_per_step = steps > 0 ? best_ns / 1e3 / steps : 0.0;
  out->results_per_step = steps > 0 ? static_cast<double>(results) / steps : 0;
  out->structures_per_step =
      steps > 0 ? static_cast<double>(candidates) / steps : 0.0;
  return true;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("NEURODB_BENCH_SMOKE") != nullptr;
  const uint32_t neurons = smoke ? 240 : 2400;
  const uint32_t branch_sessions = smoke ? 8 : 20;
  const uint64_t walk_sessions = smoke ? 2 : 5;
  const int reps = smoke ? 2 : 5;
  constexpr float kStepUm = 10.0f;
  constexpr float kCubeUm = 30.0f;
  constexpr size_t kWalkSteps = 60;

  neuro::Circuit circuit = bench::MakeColumn(neurons, 42);
  engine::QueryEngine db;
  Status loaded = db.LoadCircuit(circuit);
  if (!loaded.ok()) {
    std::fprintf(stderr, "LoadCircuit: %s\n", loaded.ToString().c_str());
    return 1;
  }
  std::printf(
      "SCOUT think time: skeleton rebuild and AfterQuery per step\n"
      "Cortical column, %u neurons (%zu elements); %u branch-following "
      "sessions and %llu %zu-step random walks, %.0f um cubes, %.0f um "
      "steps.\n\n",
      neurons, db.NumSegments(), branch_sessions,
      static_cast<unsigned long long>(walk_sessions), kWalkSteps, kCubeUm,
      kStepUm);

  // Branches of neurons spread evenly over the gids, and random walks.
  std::vector<std::vector<Aabb>> branches, walks;
  for (uint32_t b = 0; b < branch_sessions; ++b) {
    for (uint32_t gid = b * (neurons / branch_sessions); gid < neurons;
         ++gid) {
      auto path = neuro::FollowBranchPath(circuit, gid, kStepUm, 0);
      if (path.ok()) {
        branches.push_back(neuro::PathQueries(*path, kCubeUm));
        break;
      }
    }
  }
  for (uint64_t w = 0; w < walk_sessions; ++w) {
    walks.push_back(neuro::PathQueries(
        neuro::RandomWalkPath(db.domain(), kWalkSteps, kStepUm, 1000 + w),
        kCubeUm));
  }

  TableWriter table("SCOUT think time per step",
                    {"order", "paths", "stage", "steps", "us/step",
                     "results/step", "structures/step"});
  bench::JsonEmitter emitter("scout_think");
  struct Order {
    const char* name;
    engine::CachePolicy policy;
  };
  for (const Order& order : {Order{"id", engine::CachePolicy::kDelta},
                             Order{"crawl", engine::CachePolicy::kCold}}) {
    for (const auto& [kind, paths] :
         {std::pair<const char*, const std::vector<std::vector<Aabb>>*>{
              "branch", &branches},
          {"walk", &walks}}) {
      std::vector<RecordedSession> sessions;
      if (!Record(db, order.policy, *paths, &sessions)) return 1;
      StageTime skeleton, think;
      if (!TimeSkeleton(db, sessions, reps, &skeleton)) return 1;
      if (!TimeThink(db, sessions, reps, &think)) return 1;
      for (const auto& [stage, t] :
           {std::pair<const char*, const StageTime*>{"skeleton", &skeleton},
            {"think", &think}}) {
        table.AddRow({order.name, kind, stage, TableWriter::Int(t->steps),
                      TableWriter::Num(t->us_per_step, 1),
                      TableWriter::Num(t->results_per_step, 1),
                      TableWriter::Num(t->structures_per_step, 2)});
        emitter.AddRow(bench::JsonRow()
                           .Int("neurons", neurons)
                           .Str("order", order.name)
                           .Str("paths", kind)
                           .Str("stage", stage)
                           .Int("steps", t->steps)
                           .Num("us_per_step", t->us_per_step)
                           .Num("results_per_step", t->results_per_step)
                           .Num("structures_per_step",
                                t->structures_per_step));
      }
    }
  }
  table.Print();
  std::printf(
      "\nstructures/step is the structures found (skeleton) or SCOUT's\n"
      "candidates kept (think). us/step is the fastest of %d replays.\n",
      reps);
  return emitter.Write() ? 0 : 1;
}
