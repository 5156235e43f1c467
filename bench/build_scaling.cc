// Experiment E11 (paper Section 1): the tools "allow to build, analyze and
// simulate bigger and more detailed models" — index construction must scale
// near-linearly. Measures FLAT and R-tree build cost and footprint vs N,
// and what a whole QueryEngine::LoadElements (all four backends, built at
// once, over one live set) costs in wall time and in heap.
//
// Writes BENCH_build_scaling.json (one row per N and structure). Under
// NEURODB_BENCH_SMOKE=1 it stops at N = 100k, which CI runs on every push
// to archive the set-up cost.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "engine/query_engine.h"
#include "flat/flat_index.h"
#include "neuro/workload.h"
#include "rtree/rtree.h"

using namespace neurodb;
using geom::Aabb;
using geom::Vec3;

/// Bytes the allocator has handed out (small blocks + mmapped ones).
size_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

int main() {
  const bool smoke = std::getenv("NEURODB_BENCH_SMOKE") != nullptr;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{50000, 100000}
            : std::vector<size_t>{50000, 100000, 200000, 400000};
  std::printf("E11: index build scalability\n\n");

  TableWriter table("E11: build time and footprint vs N",
                    {"N", "structure", "build ms", "ms/100K elems",
                     "pages / nodes", "in-memory bytes"});
  bench::JsonEmitter emitter("build_scaling");
  auto add_row = [&](size_t n, const std::string& structure, double ms,
                     size_t pages, size_t bytes) {
    table.AddRow({TableWriter::Int(n), structure, TableWriter::Num(ms, 1),
                  TableWriter::Num(ms * 100000.0 / n, 1),
                  TableWriter::Int(pages), TableWriter::Bytes(bytes)});
    emitter.AddRow(bench::JsonRow()
                       .Int("n", n)
                       .Str("structure", structure)
                       .Num("build_ms", ms)
                       .Num("ms_per_100k", ms * 100000.0 / n)
                       .Int("pages_or_nodes", pages)
                       .Int("in_memory_bytes", bytes));
  };

  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  for (size_t n : sizes) {
    neuro::SegmentDataset data =
        neuro::UniformSegments(n, domain, 6.0f, 1.5f, 0.4f, 77);
    geom::ElementVec elements = data.Elements();

    {
      storage::PageStore store;
      Timer timer;
      auto index = flat::FlatIndex::Build(elements, &store);
      double ms = timer.ElapsedMillis();
      if (!index.ok()) return 1;
      add_row(n, "FLAT", ms, index->NumPages(), index->MetadataBytes());
    }
    {
      Timer timer;
      auto tree = rtree::RTree::BulkLoadStr(elements);
      double ms = timer.ElapsedMillis();
      if (!tree.ok()) return 1;
      add_row(n, "R-Tree (STR)", ms, tree->NumNodes(), tree->MemoryBytes());
    }
    {
      // The bytes are the heap the load adds: every backend's index plus
      // the engine's one live set.
      const size_t heap0 = HeapBytes();
      Timer timer;
      engine::QueryEngine db;
      if (!db.LoadElements(elements).ok()) return 1;
      double ms = timer.ElapsedMillis();
      size_t pages = 0;
      for (size_t b = 0; b < db.NumBackends(); ++b) {
        pages += db.backend(b).Stats().index_pages;
      }
      add_row(n, "QueryEngine::LoadElements", ms, pages, HeapBytes() - heap0);
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: ms/100K stays roughly constant for every build "
      "(sort-dominated, near-linear). The LoadElements row's bytes are the "
      "heap it adds (mallinfo2 uordblks + hblkhd), its pages the sum over "
      "the four backends.\n");
  return emitter.Write() ? 0 : 1;
}
