// Experiment E5 (paper Figure 5): SCOUT's candidate pruning — "With several
// queries in a sequence, the structure the user follows can thus be
// identified reliably." Reports the candidate structure count per step of a
// branch-following walkthrough.

#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "flat/flat_index.h"
#include "neuro/workload.h"
#include "scout/session.h"

using namespace neurodb;

int main() {
  std::printf("E5: candidate-set pruning along the query sequence (Fig 5)\n\n");

  neuro::Circuit circuit = bench::MakeColumn(300, 3);
  neuro::SegmentDataset dataset = circuit.FlattenSegments();
  neuro::SegmentResolver resolver;
  resolver.AddDataset(dataset);

  storage::PageStore store;
  auto index = flat::FlatIndex::Build(dataset.Elements(), &store);
  if (!index.ok()) return 1;

  TableWriter table("E5: SCOUT candidate structures per step",
                    {"path", "step", "candidates", "prefetched", "stall ms"});

  for (uint32_t gid : {0u, 7u}) {
    auto path = neuro::FollowBranchPath(circuit, gid, 18.0f, 1);
    if (!path.ok()) return 1;
    auto queries = neuro::PathQueries(*path, 30.0f);
    auto result = bench::Walkthrough(*index, &store, resolver, queries,
                                     scout::PrefetchMethod::kScout,
                                     scout::SessionOptions{});
    if (!result.ok()) return 1;
    size_t show = std::min<size_t>(result->steps.size(), 10);
    for (size_t i = 0; i < show; ++i) {
      const auto& step = result->steps[i];
      table.AddRow({"gid=" + std::to_string(gid), TableWriter::Int(i),
                    TableWriter::Int(step.candidates),
                    TableWriter::Int(step.prefetched),
                    bench::UsToMs(step.stall_us)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: many candidates at step 0 (every structure leaving "
      "the box), shrinking within a few steps as the intersection of "
      "consecutive queries isolates the followed branch.\n");
  return 0;
}
