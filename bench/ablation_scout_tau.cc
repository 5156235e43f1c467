// Ablation A3: SCOUT's skeleton connectivity threshold tau. Too small
// fragments branches (losing the followed structure between queries); too
// large merges unrelated branches (diluting the candidate pruning).

#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "flat/flat_index.h"
#include "neuro/workload.h"
#include "scout/session.h"

using namespace neurodb;

int main() {
  std::printf("A3: SCOUT connectivity threshold (tau) ablation\n\n");

  neuro::Circuit circuit = bench::MakeColumn(120, 3);
  neuro::SegmentDataset dataset = circuit.FlattenSegments();
  neuro::SegmentResolver resolver;
  resolver.AddDataset(dataset);

  storage::PageStore store;
  flat::FlatOptions flat_options;
  flat_options.elems_per_page = 128;
  auto index = flat::FlatIndex::Build(dataset.Elements(), &store, flat_options);
  if (!index.ok()) return 1;

  auto path = neuro::FollowBranchPath(circuit, 4, 12.0f, 1);
  if (!path.ok()) return 1;
  auto queries = neuro::PathQueries(*path, 35.0f);

  TableWriter table("A3: walkthrough quality vs tau",
                    {"tau um", "stall ms", "prefetched", "used", "precision",
                     "hit rate", "final candidates"});

  for (float tau : {0.1f, 0.5f, 1.0f, 2.0f, 5.0f, 15.0f}) {
    scout::SessionOptions options;
    options.think_time_us = 400'000;
    options.cost.page_read_micros = 5000;
    options.scout.structure.connect_tol = tau;
    auto result = bench::Walkthrough(*index, &store, resolver, queries,
                                     scout::PrefetchMethod::kScout, options);
    if (!result.ok()) return 1;
    table.AddRow(
        {TableWriter::Num(tau, 1), bench::UsToMs(result->total_stall_us),
         TableWriter::Int(result->prefetch_issued),
         TableWriter::Int(result->prefetch_used),
         TableWriter::Num(100.0 * result->PrefetchPrecision(), 1) + "%",
         TableWriter::Num(100.0 * result->HitRate(), 1) + "%",
         TableWriter::Int(result->steps.back().candidates)});
  }
  table.Print();
  std::printf(
      "\nReading: mid-range tau tracks the followed branch best; tiny tau "
      "fragments it, huge tau merges the neighborhood into one blob.\n");
  return 0;
}
