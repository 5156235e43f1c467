// Ablation A2: TOUCH's partitioning-tree shape — internal fanout and data
// leaf size. Small fanout buckets probes deep (few comparisons, more node
// tests); large leaves cut tree overhead but grow per-bucket nested loops.
//
// Doubles as the `ablation_touch_tree_smoke` ctest gate: every tree shape
// must find plane sweep's pair set (the bench exits non-zero otherwise).
// Times are reported, not gated.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "touch/spatial_join.h"

using namespace neurodb;

namespace {

std::vector<touch::JoinPair> Sorted(std::vector<touch::JoinPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

int main() {
  std::printf("A2: TOUCH fanout / leaf-size ablation\n\n");

  neuro::Circuit circuit = bench::MakeColumn(150, 41);
  auto axons = circuit.FlattenSegments(neuro::NeuriteFilter::kAxons);
  auto dendrites = circuit.FlattenSegments(neuro::NeuriteFilter::kDendrites);
  touch::JoinInput a =
      touch::JoinInput::FromSegments(axons.segments, axons.ids);
  touch::JoinInput b =
      touch::JoinInput::FromSegments(dendrites.segments, dendrites.ids);
  std::printf("|A| = %zu, |B| = %zu, eps = 3\n\n", a.size(), b.size());

  touch::JoinOptions base;
  base.epsilon = 3.0f;
  auto sweep = touch::PlaneSweepJoin(a, b, base);
  if (!sweep.ok()) return 1;
  const std::vector<touch::JoinPair> expected = Sorted(sweep->pairs);

  TableWriter table("A2: TOUCH cost vs tree shape",
                    {"fanout", "leaf", "total ms", "build ms", "assign ms",
                     "probe ms", "comparisons", "node tests", "filtered",
                     "memory"});

  int failures = 0;
  for (size_t fanout : {4, 8, 16, 32, 64}) {
    for (size_t leaf : {32, 96, 256}) {
      touch::JoinOptions options = base;
      options.touch_fanout = fanout;
      options.touch_leaf = leaf;
      auto result = touch::TouchJoin(a, b, options);
      if (!result.ok()) return 1;
      if (Sorted(result->pairs) != expected) {
        std::fprintf(stderr,
                     "GATE: fanout %zu, leaf %zu: TOUCH's pair set differs "
                     "from plane sweep's\n",
                     fanout, leaf);
        ++failures;
      }
      const auto& s = result->stats;
      table.AddRow({TableWriter::Int(fanout), TableWriter::Int(leaf),
                    TableWriter::Num(s.total_ns / 1e6, 1),
                    bench::Ms(s.build_ns), bench::Ms(s.assign_ns),
                    bench::Ms(s.probe_ns), TableWriter::Int(s.mbr_tests),
                    TableWriter::Int(s.node_tests),
                    TableWriter::Int(s.filtered),
                    TableWriter::Bytes(s.peak_bytes)});
    }
  }
  table.Print();
  if (failures == 0) {
    std::printf("\nAll rows returned plane sweep's %zu synapse pairs.\n",
                expected.size());
  }
  return failures == 0 ? 0 : 1;
}
