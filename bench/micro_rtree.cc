// R-tree structure sweep: the STR-packed tree (the only construction path)
// on a uniform cloud (where data-oblivious tiling shines) and a clustered
// cloud (where STR slabs crossing empty inter-cluster space inflate leaf
// MBRs). Reports build time, structure (nodes, height, and the leaf fill
// and leaf overlap volume of its LevelProfile) and the average nodes
// visited by a data-centered range query; emits BENCH_micro_rtree.json.
//
// Doubles as the `micro_rtree_smoke` ctest gate (NEURODB_BENCH_SMOKE=1):
//   * each dataset's total result count equals brute force,
//   * leaf fill is at least 0.9 (STR packs every leaf but the last full).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "neuro/workload.h"
#include "rtree/rtree.h"

using namespace neurodb;
using geom::Aabb;
using geom::Vec3;
using rtree::RTree;

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

geom::ElementVec UniformElements(size_t n, const Aabb& domain, float elem_side,
                                 uint64_t seed) {
  Pcg32 rng(seed);
  geom::ElementVec out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vec3 c(static_cast<float>(rng.Uniform(domain.min.x, domain.max.x)),
           static_cast<float>(rng.Uniform(domain.min.y, domain.max.y)),
           static_cast<float>(rng.Uniform(domain.min.z, domain.max.z)));
    out.emplace_back(static_cast<geom::ElementId>(i),
                     Aabb::Cube(c, elem_side));
  }
  return out;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("NEURODB_BENCH_SMOKE") != nullptr;
  const size_t n = smoke ? 4000 : 40000;
  const size_t num_queries = smoke ? 64 : 256;

  const Aabb domain(Vec3(0, 0, 0), Vec3(200, 200, 200));
  struct Dataset {
    std::string name;
    geom::ElementVec elements;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"uniform", UniformElements(n, domain, 1.5f, 11)});
  datasets.push_back(
      {"clustered",
       neuro::ClusteredElements(n, domain, /*clusters=*/24, /*sigma=*/6.0f,
                                /*elem_side=*/1.5f, /*seed=*/11)});

  std::printf("STR R-tree sweep: %zu elements per dataset, %zu queries\n\n", n,
              num_queries);

  bench::JsonEmitter emitter("micro_rtree");
  TableWriter table("STR R-tree (leaf overlap in um^3)",
                    {"dataset", "build ms", "nodes", "height", "leaf fill",
                     "leaf overlap", "query nodes", "results"});
  int failures = 0;

  for (const Dataset& dataset : datasets) {
    auto queries =
        neuro::DataCenteredQueries(dataset.elements, 8.0f, num_queries, 13);

    auto t0 = std::chrono::steady_clock::now();
    auto tree = RTree::BulkLoadStr(dataset.elements);
    if (!tree.ok()) {
      std::fprintf(stderr, "%s: build failed: %s\n", dataset.name.c_str(),
                   tree.status().ToString().c_str());
      return 1;
    }
    const double build_ms = MsSince(t0);
    double leaf_fill = 0;
    double leaf_overlap = 0;
    auto profile = tree->LevelProfile();
    if (!profile.empty()) {
      leaf_fill = profile.front().mean_fill;
      leaf_overlap = profile.front().overlap_volume;
    }

    uint64_t nodes_visited = 0;
    uint64_t results = 0;
    uint64_t brute_force = 0;
    std::vector<geom::ElementId> out;
    for (const Aabb& q : queries) {
      rtree::QueryStats stats;
      out.clear();
      tree->RangeQuery(q, &out, &stats);
      nodes_visited += stats.nodes_visited;
      results += out.size();
      for (const auto& e : dataset.elements) {
        if (e.bounds.Intersects(q)) ++brute_force;
      }
    }
    const double avg_query_nodes = static_cast<double>(nodes_visited) /
                                   static_cast<double>(queries.size());

    table.AddRow({dataset.name, TableWriter::Num(build_ms, 2),
                  TableWriter::Int(tree->NumNodes()),
                  TableWriter::Int(tree->Height()),
                  TableWriter::Num(leaf_fill, 3),
                  TableWriter::Num(leaf_overlap, 0),
                  TableWriter::Num(avg_query_nodes, 1),
                  TableWriter::Int(results)});
    emitter.AddRow(bench::JsonRow()
                       .Str("dataset", dataset.name)
                       .Str("variant", "str-bulk")
                       .Num("build_ms", build_ms)
                       .Int("nodes", tree->NumNodes())
                       .Int("height", static_cast<uint64_t>(tree->Height()))
                       .Num("leaf_fill", leaf_fill)
                       .Num("leaf_overlap", leaf_overlap)
                       .Num("avg_query_nodes", avg_query_nodes)
                       .Int("results", results));

    // Gates (cheap — enforced on every run, not just smoke).
    if (results != brute_force) {
      std::fprintf(stderr,
                   "GATE[%s]: the tree returned %llu results, brute force "
                   "%llu\n",
                   dataset.name.c_str(),
                   static_cast<unsigned long long>(results),
                   static_cast<unsigned long long>(brute_force));
      ++failures;
    }
    if (leaf_fill < 0.9) {
      std::fprintf(stderr, "GATE[%s]: leaf fill %.3f below 0.9\n",
                   dataset.name.c_str(), leaf_fill);
      ++failures;
    }
  }
  table.Print();
  emitter.Write();

  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
