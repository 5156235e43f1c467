// kNN across the engine backends: FLAT's best-first browse of its seed
// tree's page MBRs against the paged R-tree's best-first traversal, the
// grid's browse of its own page MBRs and the domain-sharded fan-out. Three
// datasets: the cortical column (the paper's exhibit), a Gaussian-clustered
// cloud and a power-law density cloud — skewed distributions where an
// adaptive hierarchy should have the edge. Under NEURODB_BENCH_SMOKE=1 the
// skewed-dataset gate is enforced: FLAT, reading only the pages within the
// k-th distance from a memory-resident seed tree, beats the paged R-tree
// on pages AND modeled time.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "engine/query_engine.h"
#include "neuro/workload.h"

using namespace neurodb;
using geom::Aabb;
using geom::Vec3;

namespace {

struct Config {
  std::string name;
  geom::ElementVec elements;
  bool skewed = false;  // gated dataset
};

struct Measured {
  double pages = 0;
  double time_us = 0;
};

}  // namespace

int main() {
  const bool smoke = std::getenv("NEURODB_BENCH_SMOKE") != nullptr;
  const size_t gate_k = 8;

  std::printf(
      "kNN backend comparison (cold pools, per-query cost model)\n"
      "column / clustered / power-law datasets; 24 data-centered query "
      "points per row.\n\n");

  const Aabb domain(Vec3(0, 0, 0), Vec3(400, 400, 400));
  const size_t cloud_n = smoke ? 40000 : 80000;
  std::vector<Config> configs;
  {
    neuro::Circuit circuit = bench::MakeColumn(20, 42);
    configs.push_back(
        {"column", circuit.FlattenSegments().Elements(), false});
  }
  configs.push_back(
      {"clustered",
       neuro::ClusteredElements(cloud_n, domain, /*clusters=*/32,
                                /*sigma=*/9.0f, /*elem_side=*/2.0f,
                                /*seed=*/21),
       true});
  configs.push_back(
      {"powerlaw",
       neuro::PowerLawElements(cloud_n, domain, /*clusters=*/48,
                               /*alpha=*/1.1, /*sigma_max=*/40.0f,
                               /*elem_side=*/2.0f, /*seed=*/22),
       true});

  bench::JsonEmitter emitter("knn_backends");
  std::string metrics_json;
  int failures = 0;

  for (auto& config : configs) {
    engine::QueryEngine db;
    if (!db.LoadElements(config.elements).ok()) {
      std::fprintf(stderr, "%s: LoadElements failed\n", config.name.c_str());
      return 1;
    }
    auto anchors =
        neuro::DataCenteredQueries(config.elements, 1.0f, 24, 7);

    TableWriter table(config.name + ": avg per query, by backend and k",
                      {"k", "method", "pages", "scanned", "time ms"});
    // Measured pages/latency at the gate k.
    std::map<engine::BackendChoice, Measured> at_gate_k;

    for (size_t k : {size_t{1}, size_t{8}, size_t{64}, size_t{512}}) {
      for (auto choice :
           {engine::BackendChoice::kFlat, engine::BackendChoice::kRTree,
            engine::BackendChoice::kGrid, engine::BackendChoice::kSharded}) {
        uint64_t pages = 0, scanned = 0, time_us = 0;
        std::string method;
        for (const auto& anchor : anchors) {
          engine::KnnRequest request;
          request.point = anchor.Center();
          request.k = k;
          request.backend = choice;
          request.cache = engine::CachePolicy::kCold;
          auto report = db.Execute(request);
          if (!report.ok()) {
            std::fprintf(stderr, "knn failed: %s\n",
                         report.status().ToString().c_str());
            return 1;
          }
          method = report->rows[0].method;
          pages += report->rows[0].stats.pages_read;
          scanned += report->rows[0].stats.elements_scanned;
          time_us += report->rows[0].stats.time_us;
        }
        double n = static_cast<double>(anchors.size());
        if (k == gate_k) at_gate_k[choice] = {pages / n, time_us / n};
        table.AddRow({TableWriter::Int(k), method,
                      TableWriter::Num(pages / n, 1),
                      TableWriter::Num(scanned / n, 0),
                      bench::UsToMs(static_cast<uint64_t>(time_us / n))});
        emitter.AddRow(bench::JsonRow()
                           .Str("dataset", config.name)
                           .Int("k", k)
                           .Str("method", method)
                           .Num("avg_pages", pages / n)
                           .Num("avg_scanned", scanned / n)
                           .Num("avg_time_us", time_us / n));
      }
    }
    table.Print();
    std::printf("\n");

    if (!config.skewed) continue;
    // Gate on the skewed datasets: FLAT must beat the R-tree on pages AND
    // modeled time.
    const Measured& flat = at_gate_k[engine::BackendChoice::kFlat];
    const Measured& rtree = at_gate_k[engine::BackendChoice::kRTree];
    if (!(flat.pages < rtree.pages && flat.time_us < rtree.time_us)) {
      std::fprintf(stderr,
                   "GATE[%s]: FLAT (%.1f pages, %.0f us) does not beat "
                   "R-Tree (%.1f pages, %.0f us) at k=%zu\n",
                   config.name.c_str(), flat.pages, flat.time_us,
                   rtree.pages, rtree.time_us, gate_k);
      ++failures;
    }
    // Engine-side view of the run (the last dataset's snapshot is
    // archived with the rows — every query above fed backend.* metrics).
    metrics_json = db.MetricsSnapshot().ToJson();
  }

  emitter.SetMetricsJson(metrics_json);
  emitter.Write();
  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
