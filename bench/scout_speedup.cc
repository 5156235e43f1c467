// Experiment E6 (paper Figure 6 + Section 3.1 claim): SCOUT speeds up
// branch-following walkthroughs "by a factor of up to 15x" and beats
// Hilbert and extrapolation prefetching. A random walk through the dense
// centre of the column is the prediction-hostile control; the bench fails
// when that walk reads too little to measure (kNone missing pages on fewer
// than half its steps).

#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "flat/flat_index.h"
#include "neuro/workload.h"
#include "scout/session.h"

using namespace neurodb;

int main() {
  std::printf(
      "E6: walkthrough stall speedup by prefetching method (paper Fig 6)\n"
      "Think time 400 ms, cold page 5 ms, branch-following paths and a "
      "random walk.\n\n");

  neuro::Circuit circuit = bench::MakeColumn(300, 3);
  neuro::SegmentDataset dataset = circuit.FlattenSegments();
  neuro::SegmentResolver resolver;
  resolver.AddDataset(dataset);

  storage::PageStore store;
  flat::FlatOptions flat_options;
  flat_options.elems_per_page = 32;
  auto index = flat::FlatIndex::Build(dataset.Elements(), &store, flat_options);
  if (!index.ok()) return 1;

  scout::SessionOptions session_options;
  session_options.think_time_us = 400'000;
  session_options.cost.page_read_micros = 5000;
  session_options.cost.page_hit_micros = 10;

  struct Workload {
    std::string name;
    std::vector<geom::Aabb> queries;
  };
  std::vector<Workload> workloads;
  for (uint32_t gid : {0u, 5u, 9u}) {
    auto path = neuro::FollowBranchPath(circuit, gid, 18.0f, 1);
    if (!path.ok()) return 1;
    workloads.push_back(
        {"branch gid=" + std::to_string(gid), neuro::PathQueries(*path, 30.0f)});
  }
  // A walk over the whole circuit bounds crosses mostly empty space and
  // stalls on almost nothing; this one stays in a 150 um cube at the centre
  // of the indexed tissue.
  const geom::Aabb walk_domain =
      geom::Aabb::Cube(index->domain().Center(), 150.0f);
  workloads.push_back(
      {"random walk",
       neuro::PathQueries(neuro::RandomWalkPath(walk_domain, 25, 18.0f, 9),
                          35.0f)});

  TableWriter table("E6: total stall per walkthrough (lower is better)",
                    {"workload", "steps", "method", "stall ms", "speedup",
                     "steady ms", "steady speedup"});

  // Per workload, the methods with the highest steady speedup.
  std::vector<std::string> best_methods(workloads.size());
  std::vector<double> best_speedup(workloads.size(), 0.0);
  size_t walk_missing_steps = 0;
  for (size_t w = 0; w < workloads.size(); ++w) {
    const Workload& workload = workloads[w];
    const bool random_walk = w + 1 == workloads.size();
    uint64_t none_stall = 0;
    uint64_t none_steady = 0;
    for (auto method : scout::AllPrefetchMethods()) {
      auto result = bench::Walkthrough(*index, &store, resolver,
                                       workload.queries, method,
                                       session_options);
      if (!result.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      // "Steady" excludes the cold first query, which no prefetcher can
      // help with — the paper's sequences are long, so their speedups are
      // steady-state numbers.
      uint64_t steady = result->total_stall_us - result->steps.front().stall_us;
      if (method == scout::PrefetchMethod::kNone) {
        none_stall = result->total_stall_us;
        none_steady = steady;
        if (random_walk) {
          for (const scout::StepRecord& step : result->steps) {
            if (step.pages_missed > 0) ++walk_missing_steps;
          }
        }
      }
      double speedup =
          result->total_stall_us == 0
              ? 0.0
              : static_cast<double>(none_stall) / result->total_stall_us;
      double steady_speedup =
          steady == 0 ? 0.0 : static_cast<double>(none_steady) / steady;
      table.AddRow({workload.name, TableWriter::Int(workload.queries.size()),
                    scout::PrefetchMethodName(method),
                    bench::UsToMs(result->total_stall_us),
                    TableWriter::Factor(speedup), bench::UsToMs(steady),
                    TableWriter::Factor(steady_speedup)});
      if (steady_speedup > best_speedup[w]) {
        best_speedup[w] = steady_speedup;
        best_methods[w] = scout::PrefetchMethodName(method);
      } else if (steady_speedup == best_speedup[w]) {
        best_methods[w] += ", ";
        best_methods[w] += scout::PrefetchMethodName(method);
      }
    }
  }
  table.Print();
  std::printf("\nHighest steady speedup per workload:\n");
  for (size_t w = 0; w < workloads.size(); ++w) {
    std::printf("  %-13s %s %s\n", workloads[w].name.c_str(),
                TableWriter::Factor(best_speedup[w]).c_str(),
                best_methods[w].c_str());
  }
  const size_t walk_steps = workloads.back().queries.size();
  std::printf("The random walk misses pages without prefetching on %zu of %zu "
              "steps.\n",
              walk_missing_steps, walk_steps);
  if (2 * walk_missing_steps < walk_steps) {
    std::fprintf(stderr,
                 "random walk control misses pages on fewer than half its "
                 "steps: it measures no prefetching\n");
    return 1;
  }
  return 0;
}
