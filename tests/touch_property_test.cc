// The central join property: every algorithm — TOUCH, PBSM, S3, plane
// sweep — must return exactly the nested-loop reference pair set, across
// data shapes, epsilon values, tuning knobs and seeds. TOUCH, which spreads
// its work over every hardware thread, must also return the same pair
// sequence and counters as the same call run serially.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"
#include "rtree/rtree.h"
#include "touch/spatial_join.h"

namespace neurodb {
namespace touch {
namespace {

using geom::Aabb;
using geom::Vec3;

enum class Shape { kUniform, kClustered, kCircuit };

std::string ShapeName(Shape s) {
  switch (s) {
    case Shape::kUniform:
      return "Uniform";
    case Shape::kClustered:
      return "Clustered";
    case Shape::kCircuit:
      return "Circuit";
  }
  return "Unknown";
}

std::pair<JoinInput, JoinInput> MakeInputs(Shape shape, uint64_t seed) {
  const Aabb domain(Vec3(0, 0, 0), Vec3(60, 60, 60));
  switch (shape) {
    case Shape::kUniform: {
      auto a = neuro::UniformSegments(500, domain, 4, 1, 0.3f, seed);
      auto b = neuro::UniformSegments(500, domain, 4, 1, 0.3f, seed + 100);
      return {JoinInput::FromSegments(a.segments, a.ids),
              JoinInput::FromSegments(b.segments, b.ids)};
    }
    case Shape::kClustered: {
      auto a = neuro::ClusteredSegments(500, domain, 4, 3, 4, 0.3f, seed);
      auto b =
          neuro::ClusteredSegments(500, domain, 4, 3, 4, 0.3f, seed + 100);
      return {JoinInput::FromSegments(a.segments, a.ids),
              JoinInput::FromSegments(b.segments, b.ids)};
    }
    case Shape::kCircuit: {
      neuro::CircuitParams params;
      params.num_neurons = 6;
      params.seed = seed;
      auto circuit = neuro::CircuitGenerator(params).Generate();
      EXPECT_TRUE(circuit.ok());
      auto axons = circuit->FlattenSegments(neuro::NeuriteFilter::kAxons);
      auto dendrites =
          circuit->FlattenSegments(neuro::NeuriteFilter::kDendrites);
      return {JoinInput::FromSegments(axons.segments, axons.ids),
              JoinInput::FromSegments(dendrites.segments, dendrites.ids)};
    }
  }
  return {};
}

std::vector<JoinPair> Sorted(std::vector<JoinPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

using Param = std::tuple<Shape, float, uint64_t>;

class JoinEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(JoinEquivalenceTest, AllMethodsMatchNestedLoopReference) {
  auto [shape, epsilon, seed] = GetParam();
  auto [a, b] = MakeInputs(shape, seed);
  ASSERT_GT(a.size(), 0u);
  ASSERT_GT(b.size(), 0u);

  JoinOptions options;
  options.epsilon = epsilon;

  auto reference = NestedLoopJoin(a, b, options);
  ASSERT_TRUE(reference.ok());
  auto expected = Sorted(reference->pairs);

  for (JoinMethod method :
       {JoinMethod::kPlaneSweep, JoinMethod::kScalableSweep,
        JoinMethod::kPbsm, JoinMethod::kS3, JoinMethod::kTouch}) {
    auto result = RunJoin(method, a, b, options);
    ASSERT_TRUE(result.ok()) << JoinMethodName(method);
    EXPECT_EQ(Sorted(result->pairs), expected)
        << JoinMethodName(method) << " on " << ShapeName(shape)
        << " eps=" << epsilon << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(Shape::kUniform, Shape::kClustered,
                                         Shape::kCircuit),
                       ::testing::Values(0.5f, 2.0f, 5.0f),
                       ::testing::Values<uint64_t>(1, 2)),
    [](const auto& info) {
      return ShapeName(std::get<0>(info.param)) + "Eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
             "S" + std::to_string(std::get<2>(info.param));
    });

// Tuning knobs must never change the answer, only the cost.
class TouchTuningTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(TouchTuningTest, FanoutAndLeafSizeDoNotChangeResults) {
  auto [fanout, leaf] = GetParam();
  auto [a, b] = MakeInputs(Shape::kClustered, 9);
  JoinOptions base;
  base.epsilon = 2.0f;
  auto reference = NestedLoopJoin(a, b, base);
  ASSERT_TRUE(reference.ok());

  JoinOptions tuned = base;
  tuned.touch_fanout = fanout;
  tuned.touch_leaf = leaf;
  auto result = TouchJoin(a, b, tuned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->pairs), Sorted(reference->pairs))
      << "fanout=" << fanout << " leaf=" << leaf;
}

INSTANTIATE_TEST_SUITE_P(Knobs, TouchTuningTest,
                         ::testing::Combine(::testing::Values<size_t>(4, 16,
                                                                      64),
                                            ::testing::Values<size_t>(8, 96,
                                                                      512)),
                         [](const auto& info) {
                           return "F" + std::to_string(std::get<0>(info.param)) +
                                  "L" + std::to_string(std::get<1>(info.param));
                         });

class PbsmTuningTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PbsmTuningTest, GridResolutionDoesNotChangeResults) {
  auto [a, b] = MakeInputs(Shape::kUniform, 12);
  JoinOptions base;
  base.epsilon = 2.0f;
  auto reference = NestedLoopJoin(a, b, base);
  ASSERT_TRUE(reference.ok());

  JoinOptions tuned = base;
  tuned.pbsm_target_per_cell = GetParam();
  auto result = PbsmJoin(a, b, tuned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(result->pairs), Sorted(reference->pairs))
      << "target_per_cell=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Grids, PbsmTuningTest,
                         ::testing::Values<size_t>(2, 16, 64, 4096));

// Self-join (same dataset on both sides) is the synapse-discovery shape
// when joining a circuit against itself.
TEST(JoinSelfTest, SelfJoinIsConsistentAcrossMethods) {
  auto [a, unused] = MakeInputs(Shape::kUniform, 31);
  (void)unused;
  JoinOptions options;
  options.epsilon = 1.0f;
  auto reference = NestedLoopJoin(a, a, options);
  ASSERT_TRUE(reference.ok());
  for (JoinMethod method :
       {JoinMethod::kPlaneSweep, JoinMethod::kScalableSweep,
        JoinMethod::kPbsm, JoinMethod::kS3, JoinMethod::kTouch}) {
    auto result = RunJoin(method, a, a, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->pairs), Sorted(reference->pairs))
        << JoinMethodName(method);
  }
}

// Degenerate geometry: zero-length segments (points) and coincident boxes.
TEST(JoinDegenerateTest, PointSegmentsAndDuplicates) {
  std::vector<geom::Segment> sa;
  std::vector<geom::ElementId> ia;
  for (int i = 0; i < 20; ++i) {
    Vec3 p(static_cast<float>(i), 0, 0);
    sa.emplace_back(p, p, 0.2f);  // degenerate capsule = sphere
    ia.push_back(i);
  }
  // b duplicates a.
  JoinInput a = JoinInput::FromSegments(sa, ia);
  JoinOptions options;
  options.epsilon = 0.7f;  // spheres at distance 1: gap = 1 - 0.4 = 0.6 <= eps
  auto reference = NestedLoopJoin(a, a, options);
  ASSERT_TRUE(reference.ok());
  // Each point matches itself and both neighbors (except the ends).
  EXPECT_EQ(reference->pairs.size(), 20u + 2 * 19u);
  for (JoinMethod method :
       {JoinMethod::kPlaneSweep, JoinMethod::kScalableSweep,
        JoinMethod::kPbsm, JoinMethod::kS3, JoinMethod::kTouch}) {
    auto result = RunJoin(method, a, a, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Sorted(result->pairs), Sorted(reference->pairs))
        << JoinMethodName(method);
  }
}

// ---------------------------------------------------------------------------
// Parallel TOUCH is deterministic
// ---------------------------------------------------------------------------

enum class Input { kColumn, kEmptyA, kEmptyB, kAllFiltered, kSingleItem };

std::string InputName(Input input) {
  switch (input) {
    case Input::kColumn:
      return "Column";
    case Input::kEmptyA:
      return "EmptyA";
    case Input::kEmptyB:
      return "EmptyB";
    case Input::kAllFiltered:
      return "AllFiltered";
    case Input::kSingleItem:
      return "SingleItem";
  }
  return "Unknown";
}

/// Axons and dendrites of a 150-neuron layered column
/// (bench::MakeColumn(150, 41)).
std::pair<JoinInput, JoinInput> ColumnInputs() {
  neuro::CircuitParams params;
  params.num_neurons = 150;
  params.seed = 41;
  params.layer_weights = {0.05f, 0.40f, 0.25f, 0.20f, 0.10f};
  auto circuit = neuro::CircuitGenerator(params).Generate();
  EXPECT_TRUE(circuit.ok());
  auto axons = circuit->FlattenSegments(neuro::NeuriteFilter::kAxons);
  auto dendrites = circuit->FlattenSegments(neuro::NeuriteFilter::kDendrites);
  return {JoinInput::FromSegments(axons.segments, axons.ids),
          JoinInput::FromSegments(dendrites.segments, dendrites.ids)};
}

std::pair<JoinInput, JoinInput> MakeDeterminismInputs(Input input) {
  switch (input) {
    case Input::kColumn:
      return ColumnInputs();
    case Input::kEmptyA:
      return {JoinInput(), MakeInputs(Shape::kCircuit, 1).second};
    case Input::kEmptyB:
      return {MakeInputs(Shape::kCircuit, 1).first, JoinInput()};
    case Input::kAllFiltered: {
      // B is A moved far outside A's space.
      JoinInput a = MakeInputs(Shape::kCircuit, 1).first;
      std::vector<geom::Segment> moved;
      for (const geom::Segment& s : a.segments) {
        moved.emplace_back(s.a + Vec3(5000, 0, 0), s.b + Vec3(5000, 0, 0),
                           s.radius);
      }
      JoinInput b = JoinInput::FromSegments(std::move(moved), a.ids);
      return {std::move(a), std::move(b)};
    }
    case Input::kSingleItem: {
      // A fits one leaf and B one chunk: one work item per phase.
      const Aabb domain(Vec3(0, 0, 0), Vec3(30, 30, 30));
      auto a = neuro::UniformSegments(40, domain, 4, 1, 0.3f, 5);
      auto b = neuro::UniformSegments(3000, domain, 4, 1, 0.3f, 6);
      return {JoinInput::FromSegments(a.segments, a.ids),
              JoinInput::FromSegments(b.segments, b.ids)};
    }
  }
  return {};
}

/// B objects TOUCH buckets at the root of its tree over A: those whose box
/// meets the expanded MBRs of two or more root children.
size_t RootBucketSize(const JoinInput& a, const JoinInput& b,
                      const JoinOptions& options) {
  rtree::RTreeOptions tree_options;
  tree_options.max_entries = options.touch_fanout;
  tree_options.leaf_capacity = options.touch_leaf;
  geom::ElementVec elements;
  for (uint32_t i = 0; i < a.size(); ++i) elements.emplace_back(i, a.boxes[i]);
  auto tree = rtree::RTree::BulkLoadStr(elements, tree_options);
  EXPECT_TRUE(tree.ok());
  const rtree::RTree::Node& root = tree->node(tree->root());
  size_t bucketed = 0;
  for (const Aabb& box : b.boxes) {
    if (!root.bounds.Expanded(options.epsilon).Intersects(box)) continue;
    size_t matches = 0;
    for (int32_t child : root.children) {
      if (tree->node(child).bounds.Expanded(options.epsilon).Intersects(box)) {
        ++matches;
      }
    }
    if (matches > 1) ++bucketed;
  }
  return bucketed;
}

class TouchDeterminismTest : public ::testing::TestWithParam<Input> {};

// Called directly, TouchJoin runs on every hardware thread; called from a
// pool worker, it runs the same work items inline in one lane. Both must
// give the same pair sequence and counters, and plane sweep's pair set.
TEST_P(TouchDeterminismTest, ParallelEqualsSerialAndPlaneSweep) {
  auto [a, b] = MakeDeterminismInputs(GetParam());
  JoinOptions options;
  options.epsilon = 2.0f;
  if (GetParam() == Input::kColumn) {
    // The root bucket spans several 4096-object probe items.
    EXPECT_GE(RootBucketSize(a, b, options), 3u * 4096u);
  }

  auto parallel = TouchJoin(a, b, options);
  ASSERT_TRUE(parallel.ok());
  exec::ThreadPool pool(1);
  auto serial = pool.Submit([&] { return TouchJoin(a, b, options); }).get();
  ASSERT_TRUE(serial.ok());

  EXPECT_EQ(parallel->pairs, serial->pairs);
  EXPECT_EQ(parallel->stats.mbr_tests, serial->stats.mbr_tests);
  EXPECT_EQ(parallel->stats.node_tests, serial->stats.node_tests);
  EXPECT_EQ(parallel->stats.refine_tests, serial->stats.refine_tests);
  EXPECT_EQ(parallel->stats.filtered, serial->stats.filtered);
  EXPECT_EQ(parallel->stats.results, serial->stats.results);
  EXPECT_EQ(parallel->stats.results, parallel->pairs.size());

  auto sweep = PlaneSweepJoin(a, b, options);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(Sorted(parallel->pairs), Sorted(sweep->pairs));

  if (GetParam() == Input::kAllFiltered) {
    EXPECT_EQ(parallel->stats.filtered, b.size());
  }
  if (GetParam() == Input::kColumn || GetParam() == Input::kSingleItem) {
    EXPECT_GT(parallel->pairs.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, TouchDeterminismTest,
                         ::testing::Values(Input::kColumn, Input::kEmptyA,
                                           Input::kEmptyB, Input::kAllFiltered,
                                           Input::kSingleItem),
                         [](const auto& info) {
                           return InputName(info.param);
                         });

}  // namespace
}  // namespace touch
}  // namespace neurodb
