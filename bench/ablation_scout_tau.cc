// Ablation A3: SCOUT's skeleton connectivity threshold tau, on the A3 path
// (120-neuron column, 128 elements/page) and on E6's three branch paths
// (300-neuron column, 32 elements/page). The closing reading is computed
// from the table: which paths the small taus leave alike, and where the
// large ones prefetch more pages at lower precision or cut stall.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "flat/flat_index.h"
#include "neuro/workload.h"
#include "scout/session.h"

using namespace neurodb;

namespace {

/// A circuit's FLAT index and SCOUT resolver.
struct Tissue {
  neuro::Circuit circuit;
  neuro::SegmentResolver resolver;
  storage::PageStore store;
  std::optional<flat::FlatIndex> index;
};

bool BuildTissue(uint32_t neurons, size_t elems_per_page, Tissue* tissue) {
  tissue->circuit = bench::MakeColumn(neurons, 3);
  neuro::SegmentDataset dataset = tissue->circuit.FlattenSegments();
  tissue->resolver.AddDataset(dataset);
  flat::FlatOptions flat_options;
  flat_options.elems_per_page = elems_per_page;
  auto index =
      flat::FlatIndex::Build(dataset.Elements(), &tissue->store, flat_options);
  if (!index.ok()) return false;
  tissue->index = std::move(*index);
  return true;
}

}  // namespace

int main() {
  std::printf("A3: SCOUT connectivity threshold (tau) ablation\n\n");

  Tissue a3, e6;
  if (!BuildTissue(120, 128, &a3) || !BuildTissue(300, 32, &e6)) return 1;

  struct Path {
    std::string name;
    Tissue* tissue;
    std::vector<geom::Aabb> queries;
  };
  std::vector<Path> paths;
  auto a3_path = neuro::FollowBranchPath(a3.circuit, 4, 12.0f, 1);
  if (!a3_path.ok()) return 1;
  paths.push_back({"A3 gid=4 (128/page)", &a3,
                   neuro::PathQueries(*a3_path, 35.0f)});
  for (uint32_t gid : {0u, 5u, 9u}) {
    auto path = neuro::FollowBranchPath(e6.circuit, gid, 18.0f, 1);
    if (!path.ok()) return 1;
    paths.push_back({"E6 gid=" + std::to_string(gid) + " (32/page)", &e6,
                     neuro::PathQueries(*path, 30.0f)});
  }

  // The reading compares the small taus (up to kTaus[kLastSmall] = 2 um)
  // with each other and the large ones with 2 um.
  const float kTaus[] = {0.1f, 0.5f, 1.0f, 2.0f, 5.0f, 15.0f};
  constexpr size_t kLastSmall = 3;
  TableWriter table("A3: walkthrough quality vs tau",
                    {"path", "tau um", "stall ms", "prefetched", "used",
                     "precision", "hit rate", "final candidates"});
  size_t small_alike = 0, large_looser = 0;
  std::string large_faster;
  for (const Path& path : paths) {
    std::vector<scout::SessionResult> runs;
    for (float tau : kTaus) {
      scout::SessionOptions options;
      options.think_time_us = 400'000;
      options.cost.page_read_micros = 5000;
      options.scout.structure.connect_tol = tau;
      auto result = bench::Walkthrough(
          *path.tissue->index, &path.tissue->store, path.tissue->resolver,
          path.queries, scout::PrefetchMethod::kScout, options);
      if (!result.ok()) return 1;
      table.AddRow(
          {path.name, TableWriter::Num(tau, 1),
           bench::UsToMs(result->total_stall_us),
           TableWriter::Int(result->prefetch_issued),
           TableWriter::Int(result->prefetch_used),
           TableWriter::Num(100.0 * result->PrefetchPrecision(), 1) + "%",
           TableWriter::Num(100.0 * result->HitRate(), 1) + "%",
           TableWriter::Int(result->steps.back().candidates)});
      runs.push_back(std::move(*result));
    }
    auto same = [](const scout::SessionResult& a,
                   const scout::SessionResult& b) {
      return a.total_stall_us == b.total_stall_us &&
             a.prefetch_issued == b.prefetch_issued &&
             a.prefetch_used == b.prefetch_used;
    };
    bool alike = true;
    for (size_t t = 1; t <= kLastSmall; ++t) alike &= same(runs[0], runs[t]);
    small_alike += alike ? 1 : 0;
    const scout::SessionResult& small = runs[kLastSmall];
    bool looser = true;
    bool faster = false;
    for (size_t t = kLastSmall + 1; t < runs.size(); ++t) {
      looser &= runs[t].prefetch_issued > small.prefetch_issued &&
                runs[t].PrefetchPrecision() < small.PrefetchPrecision();
      faster |= runs[t].total_stall_us < small.total_stall_us;
    }
    large_looser += looser ? 1 : 0;
    if (faster) large_faster += (large_faster.empty() ? "" : ", ") + path.name;
  }
  table.Print();
  std::printf(
      "\nReading: tau 0.1-2 um give the same stall and prefetches on %zu of "
      "%zu paths (most likely because generated segments meet at exact "
      "joints, which any positive tau connects). tau 5-15 um also joins "
      "neighbouring branches: more pages prefetched at lower precision on "
      "%zu of %zu paths, and less stall on %s.\n",
      small_alike, paths.size(), large_looser, paths.size(),
      large_faster.empty() ? "none" : large_faster.c_str());
  return 0;
}
