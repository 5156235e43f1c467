// Experiment E11 (paper Section 1): the tools "allow to build, analyze and
// simulate bigger and more detailed models" — index construction must scale
// near-linearly. Measures FLAT and R-tree build cost and footprint vs N,
// and what a whole QueryEngine::LoadElements (all four backends over one
// live set) costs in wall time and in heap.

#include <malloc.h>

#include <cstdio>

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
  std::printf("E11: index build scalability\n\n");

  TableWriter table("E11: build time and footprint vs N",
                    {"N", "structure", "build ms", "ms/100K elems",
                     "pages / nodes", "in-memory bytes"});

  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  for (size_t n : {50000, 100000, 200000, 400000}) {
    neuro::SegmentDataset data =
        neuro::UniformSegments(n, domain, 6.0f, 1.5f, 0.4f, 77);
    geom::ElementVec elements = data.Elements();

    {
      storage::PageStore store;
      Timer timer;
      auto index = flat::FlatIndex::Build(elements, &store);
      double ms = timer.ElapsedMillis();
      if (!index.ok()) return 1;
      table.AddRow({TableWriter::Int(n), "FLAT",
                    TableWriter::Num(ms, 1),
                    TableWriter::Num(ms * 100000.0 / n, 1),
                    TableWriter::Int(index->NumPages()),
                    TableWriter::Bytes(index->MetadataBytes())});
    }
    {
      Timer timer;
      auto tree = rtree::RTree::BulkLoadStr(elements);
      double ms = timer.ElapsedMillis();
      if (!tree.ok()) return 1;
      table.AddRow({TableWriter::Int(n), "R-Tree (STR)",
                    TableWriter::Num(ms, 1),
                    TableWriter::Num(ms * 100000.0 / n, 1),
                    TableWriter::Int(tree->NumNodes()),
                    TableWriter::Bytes(tree->MemoryBytes())});
    }
    {
      // The in-memory column is the heap the load adds: every backend's
      // index plus the engine's one live set.
      const size_t heap0 = HeapBytes();
      Timer timer;
      engine::QueryEngine db;
      if (!db.LoadElements(elements).ok()) return 1;
      double ms = timer.ElapsedMillis();
      size_t pages = 0;
      for (size_t b = 0; b < db.NumBackends(); ++b) {
        pages += db.backend(b).Stats().index_pages;
      }
      table.AddRow({TableWriter::Int(n), "QueryEngine::LoadElements",
                    TableWriter::Num(ms, 1),
                    TableWriter::Num(ms * 100000.0 / n, 1),
                    TableWriter::Int(pages),
                    TableWriter::Bytes(HeapBytes() - heap0)});
    }
  }
  table.Print();
  std::printf(
      "\nExpected shape: ms/100K stays roughly constant for every build "
      "(sort-dominated, near-linear). The LoadElements row's bytes are the "
      "heap it adds (mallinfo2 uordblks + hblkhd), its pages the sum over "
      "the four backends.\n");
  return 0;
}
