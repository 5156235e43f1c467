// Experiment E7 (paper Figure 6 statistics panel): "how much data was
// prefetched in total, how much was correctly prefetched and how much data
// needed to be retrieved additionally" — per prefetching method.

#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "flat/flat_index.h"
#include "neuro/workload.h"
#include "scout/session.h"

using namespace neurodb;

int main() {
  std::printf(
      "E7: prefetch accuracy on a branch-following walkthrough (Fig 6)\n\n");

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

  auto path = neuro::FollowBranchPath(circuit, 2, 18.0f, 1);
  if (!path.ok()) return 1;
  auto queries = neuro::PathQueries(*path, 30.0f);

  TableWriter table(
      "E7: prefetched total / correctly prefetched / additionally fetched",
      {"method", "prefetched", "used", "precision", "missed (demand)",
       "hit rate"});

  for (auto method : scout::AllPrefetchMethods()) {
    auto result = bench::Walkthrough(*index, &store, resolver, queries,
                                     method, session_options);
    if (!result.ok()) return 1;
    table.AddRow({scout::PrefetchMethodName(method),
                  TableWriter::Int(result->prefetch_issued),
                  TableWriter::Int(result->prefetch_used),
                  TableWriter::Num(100.0 * result->PrefetchPrecision(), 1) + "%",
                  TableWriter::Int(result->pages_missed),
                  TableWriter::Num(100.0 * result->HitRate(), 1) + "%"});
  }
  table.Print();
  std::printf(
      "\nExpected shape: SCOUT prefetches the most *useful* pages (highest "
      "used & hit rate); Hilbert prefetches blindly along the layout.\n");
  return 0;
}
