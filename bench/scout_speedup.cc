// Experiment E6 (paper Figure 6 + Section 3.1 claim): SCOUT speeds up
// branch-following walkthroughs "by a factor of up to 15x" and beats
// Hilbert and extrapolation prefetching; on a random walk no content-aware
// advantage exists (the adversarial control).

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
      "Think time 400 ms, cold page 5 ms, branch-following paths.\n\n");

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
  workloads.push_back(
      {"random walk",
       neuro::PathQueries(neuro::RandomWalkPath(circuit.Bounds(), 25, 18.0f, 9),
                          35.0f)});

  TableWriter table("E6: total stall per walkthrough (lower is better)",
                    {"workload", "steps", "method", "stall ms", "speedup",
                     "steady ms", "steady speedup"});

  for (const auto& workload : workloads) {
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
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: SCOUT's steady-state stall speedup reaches the "
      "order of the paper's 'up to 15x' on branch following, clearly above "
      "Hilbert/extrapolation; nobody wins on the random walk.\n");
  return 0;
}
