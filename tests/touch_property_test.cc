// The central join property: every algorithm — TOUCH, PBSM, S3, plane
// sweep — must return exactly the nested-loop reference pair set, across
// data shapes, epsilon values, tuning knobs and seeds. TOUCH, which spreads
// its work over every hardware thread, must also return the same pair
// sequence and counters as the same call run serially, and as a copy of its
// algorithm that tests one box at a time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

// ---------------------------------------------------------------------------
// TouchJoin's four-box kernel against the box-at-a-time loop
// ---------------------------------------------------------------------------

/// x - y rounded toward -infinity, as TouchJoin rounds its window start.
double SubDown(double x, double y) {
  const double d = x - y;
  const double y_part = d - x;
  const double error = (x - (d - y_part)) + (-y - y_part);
  return error < 0 ? std::nextafter(d, -std::numeric_limits<double>::infinity())
                   : d;
}

/// TouchJoin's algorithm one geom::Aabb::Intersects at a time, serially:
/// the same STR tree, assignment, buckets, 4096-object probe items, group
/// descent and leaf x-windows, so the same pair sequence and counters.
class BoxAtATimeTouch {
 public:
  BoxAtATimeTouch(const JoinInput& a, const JoinInput& b,
                  const JoinOptions& options)
      : a_(a), b_(b), options_(options) {}

  JoinResult Run() {
    if (a_.size() == 0 || b_.size() == 0) {
      out_.stats.filtered = b_.size();
      return out_;
    }
    rtree::RTreeOptions tree_options;
    tree_options.max_entries = options_.touch_fanout;
    tree_options.leaf_capacity = options_.touch_leaf;
    geom::ElementVec elements;
    for (uint32_t i = 0; i < a_.size(); ++i) {
      elements.emplace_back(i, a_.boxes[i]);
    }
    auto tree = rtree::RTree::BulkLoadStr(elements, tree_options);
    EXPECT_TRUE(tree.ok());
    tree_ = &*tree;

    const size_t nodes = tree_->NumNodes();
    expanded_.resize(nodes);
    leaves_.resize(nodes);
    for (size_t id = 0; id < nodes; ++id) {
      const rtree::RTree::Node& n = tree_->node(static_cast<int32_t>(id));
      expanded_[id] = n.bounds.Expanded(options_.epsilon);
      if (!n.IsLeaf()) continue;
      std::vector<uint32_t> order(n.entries.size());
      for (uint32_t k = 0; k < n.entries.size(); ++k) order[k] = k;
      std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return n.entries[x].bounds.min.x < n.entries[y].bounds.min.x;
      });
      Leaf& leaf = leaves_[id];
      for (uint32_t k : order) {
        const Aabb box = n.entries[k].bounds.Expanded(options_.epsilon);
        leaf.max_width =
            std::max(leaf.max_width, -SubDown(box.min.x, box.max.x));
        leaf.boxes.push_back(box);
        leaf.positions.push_back(static_cast<uint32_t>(n.entries[k].id));
      }
    }

    std::vector<std::vector<uint32_t>> buckets(nodes);
    for (uint32_t j = 0; j < b_.size(); ++j) {
      const int32_t node = Assign(b_.boxes[j]);
      if (node >= 0) buckets[node].push_back(j);
    }
    constexpr size_t kChunk = 4096;
    for (size_t n = 0; n < nodes; ++n) {
      for (size_t begin = 0; begin < buckets[n].size(); begin += kChunk) {
        std::vector<uint32_t> group(
            buckets[n].begin() + begin,
            buckets[n].begin() + std::min(buckets[n].size(), begin + kChunk));
        Probe(static_cast<int32_t>(n), group);
      }
    }
    out_.stats.results = out_.pairs.size();
    return out_;
  }

 private:
  struct Leaf {
    std::vector<Aabb> boxes;  // expanded, sorted by min.x
    std::vector<uint32_t> positions;
    double max_width = 0.0;
  };

  int32_t Assign(const Aabb& bj) {
    int32_t cur = tree_->root();
    ++out_.stats.node_tests;
    if (!expanded_[cur].Intersects(bj)) {
      ++out_.stats.filtered;
      return -1;
    }
    for (;;) {
      const rtree::RTree::Node& n = tree_->node(cur);
      if (n.IsLeaf()) return cur;
      int32_t matched = -1;
      int matches = 0;
      for (int32_t child : n.children) {
        ++out_.stats.node_tests;
        if (expanded_[child].Intersects(bj)) {
          ++matches;
          matched = child;
          if (matches > 1) break;
        }
      }
      if (matches == 0) {
        ++out_.stats.filtered;
        return -1;
      }
      if (matches > 1) return cur;
      cur = matched;
    }
  }

  void Probe(int32_t node_id, const std::vector<uint32_t>& group) {
    const rtree::RTree::Node& n = tree_->node(node_id);
    if (n.IsLeaf()) {
      const Leaf& leaf = leaves_[node_id];
      for (uint32_t j : group) {
        const Aabb& box = b_.boxes[j];
        const double lo = SubDown(box.min.x, leaf.max_width);
        size_t k = std::lower_bound(leaf.boxes.begin(), leaf.boxes.end(), lo,
                                    [](const Aabb& e, double v) {
                                      return e.min.x < v;
                                    }) -
                   leaf.boxes.begin();
        for (; k < leaf.boxes.size() && leaf.boxes[k].min.x <= box.max.x;
             ++k) {
          ++out_.stats.mbr_tests;
          if (!leaf.boxes[k].Intersects(box)) continue;
          const uint32_t i = leaf.positions[k];
          if (a_.HasGeometry() && b_.HasGeometry()) {
            ++out_.stats.refine_tests;
            if (geom::CapsuleDistance(a_.segments[i], b_.segments[j]) >
                static_cast<double>(options_.epsilon)) {
              continue;
            }
          }
          out_.pairs.push_back(JoinPair{a_.ids[i], b_.ids[j]});
        }
      }
      return;
    }
    for (int32_t child : n.children) {
      std::vector<uint32_t> survivors;
      for (uint32_t j : group) {
        ++out_.stats.node_tests;
        if (expanded_[child].Intersects(b_.boxes[j])) survivors.push_back(j);
      }
      if (!survivors.empty()) Probe(child, survivors);
    }
  }

  const JoinInput& a_;
  const JoinInput& b_;
  const JoinOptions& options_;
  const rtree::RTree* tree_ = nullptr;
  std::vector<Aabb> expanded_;
  std::vector<Leaf> leaves_;
  JoinResult out_;
};

/// TouchJoin on every hardware thread and inline on one pool worker must
/// both return the box-at-a-time loop's pair sequence and counters.
void ExpectSameAsBoxAtATime(const JoinInput& a, const JoinInput& b,
                            const JoinOptions& options,
                            const std::string& label) {
  const JoinResult expected = BoxAtATimeTouch(a, b, options).Run();
  auto parallel = TouchJoin(a, b, options);
  ASSERT_TRUE(parallel.ok()) << label << ": " << parallel.status().ToString();
  exec::ThreadPool pool(1);
  auto serial = pool.Submit([&] { return TouchJoin(a, b, options); }).get();
  ASSERT_TRUE(serial.ok()) << label;
  for (const JoinResult* got : {&*parallel, &*serial}) {
    const char* mode = got == &*parallel ? " (parallel)" : " (serial)";
    EXPECT_EQ(got->pairs, expected.pairs) << label << mode;
    EXPECT_EQ(got->stats.mbr_tests, expected.stats.mbr_tests) << label << mode;
    EXPECT_EQ(got->stats.node_tests, expected.stats.node_tests)
        << label << mode;
    EXPECT_EQ(got->stats.refine_tests, expected.stats.refine_tests)
        << label << mode;
    EXPECT_EQ(got->stats.filtered, expected.stats.filtered) << label << mode;
    EXPECT_EQ(got->stats.results, expected.stats.results) << label << mode;
  }
}

JoinInput WithoutGeometry(JoinInput in) {
  in.segments.clear();
  return in;
}

class TouchKernelTest : public ::testing::TestWithParam<Param> {};

TEST_P(TouchKernelTest, MatchesBoxAtATimeLoop) {
  auto [shape, epsilon, seed] = GetParam();
  auto [a, b] = MakeInputs(shape, seed);
  JoinOptions options;
  options.epsilon = epsilon;
  ExpectSameAsBoxAtATime(a, b, options, "capsules");
  ExpectSameAsBoxAtATime(WithoutGeometry(a), WithoutGeometry(b), options,
                         "bare boxes");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TouchKernelTest,
    ::testing::Combine(::testing::Values(Shape::kUniform, Shape::kClustered,
                                         Shape::kCircuit),
                       ::testing::Values(0.5f, 2.0f, 5.0f),
                       ::testing::Values<uint64_t>(1)),
    [](const auto& info) {
      return ShapeName(std::get<0>(info.param)) + "Eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

// Runs that are not a multiple of 4 (fanout 5, leaves of 2, 3 and 65), a
// node of 64 children (one mask word), nodes of more than 64 (fanout 130
// over leaves of 2 or 3: several words) and a single-leaf tree (leaf 512
// over 500 objects).
class TouchKernelShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(TouchKernelShapeTest, MatchesBoxAtATimeLoop) {
  auto [fanout, leaf] = GetParam();
  auto [a, b] = MakeInputs(Shape::kClustered, 9);
  JoinOptions options;
  options.touch_fanout = fanout;
  options.touch_leaf = leaf;
  ExpectSameAsBoxAtATime(a, b, options, "clustered");
  auto [ca, cb] = MakeInputs(Shape::kCircuit, 2);
  ExpectSameAsBoxAtATime(ca, cb, options, "circuit");
}

INSTANTIATE_TEST_SUITE_P(
    Trees, TouchKernelShapeTest,
    ::testing::Combine(::testing::Values<size_t>(4, 5, 8, 16, 64, 130),
                       ::testing::Values<size_t>(2, 3, 8, 64, 65, 512)),
    [](const auto& info) {
      return "F" + std::to_string(std::get<0>(info.param)) + "L" +
             std::to_string(std::get<1>(info.param));
    });

/// Bare boxes [lo, lo + size] on a lattice of `side`^3 cells of `pitch`.
JoinInput Lattice(int side, float pitch, float size, Vec3 origin,
                  geom::ElementId first_id) {
  geom::ElementVec elements;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      for (int z = 0; z < side; ++z) {
        const Vec3 lo = origin + Vec3(x * pitch, y * pitch, z * pitch);
        elements.emplace_back(first_id++,
                              Aabb(lo, lo + Vec3(size, size, size)));
      }
    }
  }
  return JoinInput::FromElements(elements);
}

// Coordinates where a comparison decides on equality or on the float
// limits, each over trees whose runs need padding.
TEST(TouchKernelEdgeTest, MatchesBoxAtATimeLoop) {
  struct Case {
    std::string name;
    JoinInput a, b;
    float epsilon;
  };
  std::vector<Case> cases;
  // Unit cubes that share faces, edges and corners: every match is an
  // equality on some axis (with epsilon 0, and with 0.5 against cubes 0.5
  // apart).
  cases.push_back({"touching", Lattice(7, 1, 1, Vec3(0, 0, 0), 0),
                   Lattice(6, 1, 1, Vec3(1, 1, 1), 1000), 0.0f});
  cases.push_back({"touching after epsilon",
                   Lattice(7, 2, 1, Vec3(0, 0, 0), 0),
                   Lattice(6, 2, 1, Vec3(1.5f, 1.5f, 1.5f), 1000), 0.5f});
  // Boxes that start or end at -0.0 and +0.0, which compare equal.
  {
    geom::ElementVec ea, eb;
    for (int i = 0; i < 40; ++i) {
      const float zero = i % 2 == 0 ? 0.0f : -0.0f;
      const float t = static_cast<float>(i);
      ea.emplace_back(i, Aabb(Vec3(zero, t, zero), Vec3(1, t + 1, 1)));
      eb.emplace_back(100 + i, Aabb(Vec3(-1, t, -1), Vec3(-zero, t + 0.5f,
                                                          -zero)));
      eb.emplace_back(200 + i, Aabb(Vec3(-zero, t, -zero), Vec3(2, t, 2)));
    }
    cases.push_back({"signed zeros", JoinInput::FromElements(ea),
                     JoinInput::FromElements(eb), 0.0f});
  }
  // Finite coordinates near the float limits, beside the padding's
  // infinities; with epsilon 1e38 the expanded boxes overflow to infinity.
  {
    geom::ElementVec ea, eb;
    const float big = 3.0e38f;
    for (int i = 0; i < 60; ++i) {
      const float step = static_cast<float>(i) * 4.0e36f;
      const float x = (i % 2 == 0 ? 1.0f : -1.0f) * (big - step);
      ea.emplace_back(i, Aabb(Vec3(x, step, -big),
                              Vec3(x + 1e36f, step + 1e36f, big)));
      eb.emplace_back(100 + i, Aabb(Vec3(x + 1e36f, step, -big + step),
                                    Vec3(x + 2e36f, step + 2e36f, big)));
    }
    eb.emplace_back(999, Aabb(Vec3(-big, -big, -big), Vec3(big, big, big)));
    cases.push_back({"near float max", JoinInput::FromElements(ea),
                     JoinInput::FromElements(eb), 0.0f});
    cases.push_back({"overflowing epsilon", JoinInput::FromElements(ea),
                     JoinInput::FromElements(eb), 1.0e38f});
  }
  for (const Case& c : cases) {
    for (auto [fanout, leaf] : {std::pair<size_t, size_t>{4, 2}, {5, 3},
                                {8, 64}, {64, 65}}) {
      JoinOptions options;
      options.epsilon = c.epsilon;
      options.touch_fanout = fanout;
      options.touch_leaf = leaf;
      ExpectSameAsBoxAtATime(c.a, c.b, options,
                             c.name + " F" + std::to_string(fanout) + "L" +
                                 std::to_string(leaf));
    }
    // And the pair set every method finds.
    JoinOptions options;
    options.epsilon = c.epsilon;
    auto touch = TouchJoin(c.a, c.b, options);
    auto nested = NestedLoopJoin(c.a, c.b, options);
    ASSERT_TRUE(touch.ok() && nested.ok());
    EXPECT_GT(nested->pairs.size(), 0u) << c.name;
    EXPECT_EQ(Sorted(touch->pairs), Sorted(nested->pairs)) << c.name;
  }
}

// The column's root bucket spans several 4096-object probe items.
TEST(TouchKernelEdgeTest, ColumnMatchesBoxAtATimeLoop) {
  auto [a, b] = ColumnInputs();
  ExpectSameAsBoxAtATime(a, b, JoinOptions(), "column");
}

}  // namespace
}  // namespace touch
}  // namespace neurodb
