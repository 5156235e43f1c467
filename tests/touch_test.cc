#include "touch/spatial_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "neuro/workload.h"
#include "rtree/rtree.h"

namespace neurodb {
namespace touch {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::Segment;
using geom::Vec3;

JoinInput TinyA() {
  // Three unit boxes along x at 0, 10, 20.
  geom::ElementVec elems;
  elems.emplace_back(100, Aabb::Cube(Vec3(0, 0, 0), 1));
  elems.emplace_back(101, Aabb::Cube(Vec3(10, 0, 0), 1));
  elems.emplace_back(102, Aabb::Cube(Vec3(20, 0, 0), 1));
  return JoinInput::FromElements(elems);
}

JoinInput TinyB() {
  // One box near a[0], one between a[1] and a[2], one far away.
  geom::ElementVec elems;
  elems.emplace_back(200, Aabb::Cube(Vec3(1.5f, 0, 0), 1));
  elems.emplace_back(201, Aabb::Cube(Vec3(15, 0, 0), 1));
  elems.emplace_back(202, Aabb::Cube(Vec3(500, 0, 0), 1));
  return JoinInput::FromElements(elems);
}

std::vector<JoinPair> Sorted(std::vector<JoinPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class JoinMethodTest : public ::testing::TestWithParam<JoinMethod> {};

TEST_P(JoinMethodTest, TinyCaseExactPairs) {
  JoinOptions options;
  options.epsilon = 1.0f;  // a expanded by 1: reach 1.5 around each center
  auto result = RunJoin(GetParam(), TinyA(), TinyB(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // a0 [-0.5,0.5] expanded -> [-1.5,1.5]; b0 [1,2] -> intersects.
  // Nothing reaches b1 at [14.5,15.5] (a1 expanded ends at 11.5,
  // a2 expanded starts at 18.5). b2 is far away.
  std::vector<JoinPair> expected = {{100, 200}};
  EXPECT_EQ(Sorted(result->pairs), expected) << JoinMethodName(GetParam());
  EXPECT_EQ(result->stats.results, 1u);
}

TEST_P(JoinMethodTest, EmptyInputsYieldEmptyResult) {
  JoinOptions options;
  JoinInput empty;
  auto r1 = RunJoin(GetParam(), empty, TinyB(), options);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->pairs.empty());
  auto r2 = RunJoin(GetParam(), TinyA(), empty, options);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->pairs.empty());
}

TEST_P(JoinMethodTest, EpsilonZeroMeansBoxIntersection) {
  JoinOptions options;
  options.epsilon = 0.0f;
  geom::ElementVec ea;
  ea.emplace_back(1, Aabb::Cube(Vec3(0, 0, 0), 2));
  geom::ElementVec eb;
  eb.emplace_back(2, Aabb::Cube(Vec3(1, 0, 0), 2));  // overlaps
  eb.emplace_back(3, Aabb::Cube(Vec3(5, 0, 0), 2));  // disjoint
  auto result = RunJoin(GetParam(), JoinInput::FromElements(ea),
                        JoinInput::FromElements(eb), options);
  ASSERT_TRUE(result.ok());
  std::vector<JoinPair> expected = {{1, 2}};
  EXPECT_EQ(Sorted(result->pairs), expected);
}

// A box straddling x = 0 whose width rounds down in float: a leaf window
// start computed as float(b.min.x - float(width)) lands one ulp above the
// box's min.x and skips the touching pair.
TEST_P(JoinMethodTest, FindsTouchingPairAcrossFloatRounding) {
  geom::ElementVec ea = {{1, Aabb(Vec3(-2.91489005f, 0, 0),
                                  Vec3(4.98592424f, 1, 1))}};
  geom::ElementVec eb = {{2, Aabb(Vec3(4.98592424f, 0, 0),
                                  Vec3(5.98592424f, 1, 1))}};
  JoinOptions options;
  options.epsilon = 0.0f;
  auto result = RunJoin(GetParam(), JoinInput::FromElements(ea),
                        JoinInput::FromElements(eb), options);
  ASSERT_TRUE(result.ok());
  std::vector<JoinPair> expected = {{1, 2}};
  EXPECT_EQ(result->pairs, expected) << JoinMethodName(GetParam());
}

TEST_P(JoinMethodTest, RefinementPrunesCornerPairs) {
  // Two orthogonal segments whose boxes overlap but whose capsules stay
  // farther apart than epsilon: the filter passes, refinement must reject.
  std::vector<Segment> sa = {Segment(Vec3(0, 0, 0), Vec3(10, 0, 0), 0.1f)};
  std::vector<Segment> sb = {Segment(Vec3(9, 3, 3), Vec3(12, 3, 3), 0.1f)};
  JoinInput a = JoinInput::FromSegments(sa, {7});
  JoinInput b = JoinInput::FromSegments(sb, {8});
  JoinOptions options;
  options.epsilon = 3.0f;
  auto refined = RunJoin(GetParam(), a, b, options);
  ASSERT_TRUE(refined.ok());
  // Capsule distance: centerlines are sqrt(18)-ish apart at closest, minus
  // radii 0.2 => > 3.
  EXPECT_TRUE(refined->pairs.empty());

  // The same boxes without geometry: the filter alone decides.
  a.segments.clear();
  b.segments.clear();
  auto filter_only = RunJoin(GetParam(), a, b, options);
  ASSERT_TRUE(filter_only.ok());
  EXPECT_EQ(filter_only->pairs.size(), 1u);
}

TEST_P(JoinMethodTest, StatsArePopulated) {
  JoinOptions options;
  options.epsilon = 2.0f;
  neuro::SegmentDataset da = neuro::UniformSegments(
      400, Aabb(Vec3(0, 0, 0), Vec3(50, 50, 50)), 4, 1, 0.3f, 1);
  neuro::SegmentDataset db = neuro::UniformSegments(
      400, Aabb(Vec3(0, 0, 0), Vec3(50, 50, 50)), 4, 1, 0.3f, 2);
  auto result = RunJoin(GetParam(),
                        JoinInput::FromSegments(da.segments, da.ids),
                        JoinInput::FromSegments(db.segments, db.ids), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->pairs.size(), 0u);
  EXPECT_GT(result->stats.mbr_tests, 0u);
  EXPECT_GT(result->stats.refine_tests, 0u);
  EXPECT_GT(result->stats.total_ns, 0u);
  EXPECT_GT(result->stats.peak_bytes, 0u);
  EXPECT_EQ(result->stats.results, result->pairs.size());
}

// A NaN coordinate makes no box empty, so an emptiness check alone lets it
// through to the methods' sorts as a NaN key; an infinite epsilon would make
// every pair match.
TEST_P(JoinMethodTest, RejectsNonFiniteInputs) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  JoinOptions options;
  options.epsilon = 1.0f;
  auto rejected = [&](const JoinInput& a, const JoinInput& b) {
    return RunJoin(GetParam(), a, b, options).status().IsInvalidArgument();
  };

  geom::ElementVec nan_box = {{1, Aabb(Vec3(0, nan, 0), Vec3(1, 1, 1))}};
  EXPECT_TRUE(rejected(JoinInput::FromElements(nan_box), TinyB()));
  geom::ElementVec inf_box = {{2, Aabb(Vec3(0, 0, 0), Vec3(1, 1, inf))}};
  EXPECT_TRUE(rejected(TinyA(), JoinInput::FromElements(inf_box)));

  // Finite boxes over segments that are not: an endpoint, then a radius.
  const Segment good(Vec3(0, 0, 0), Vec3(1, 0, 0), 0.1f);
  for (const Segment& bad : {Segment(Vec3(0, 0, 0), Vec3(nan, 0, 0), 0.1f),
                             Segment(Vec3(0, 0, 0), Vec3(1, 0, 0), inf)}) {
    JoinInput in = JoinInput::FromSegments({good}, {3});
    in.segments[0] = bad;
    EXPECT_TRUE(rejected(in, JoinInput::FromSegments({good}, {4})));
  }

  options.epsilon = inf;
  EXPECT_TRUE(rejected(TinyA(), TinyB()));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, JoinMethodTest,
                         ::testing::ValuesIn(AllJoinMethods()),
                         [](const auto& info) {
                           return JoinMethodName(info.param);
                         });

TEST(JoinInputTest, FromSegmentsDerivesBounds) {
  std::vector<Segment> segs = {Segment(Vec3(0, 0, 0), Vec3(4, 0, 0), 0.5f)};
  JoinInput in = JoinInput::FromSegments(segs, {42});
  ASSERT_EQ(in.size(), 1u);
  EXPECT_TRUE(in.HasGeometry());
  EXPECT_EQ(in.boxes[0], segs[0].Bounds());
  EXPECT_TRUE(in.Validate().ok());
}

TEST(JoinInputTest, ValidationCatchesMismatches) {
  JoinInput bad;
  bad.boxes.push_back(Aabb::Cube(Vec3(0, 0, 0), 1));
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());  // ids missing
  bad.ids.push_back(1);
  EXPECT_TRUE(bad.Validate().ok());
  bad.boxes.push_back(Aabb());  // empty box
  bad.ids.push_back(2);
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(JoinOptionsTest, ValidationRules) {
  JoinOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  JoinOptions bad = ok;
  bad.epsilon = -1.0f;
  EXPECT_FALSE(bad.Validate().ok());
  // TOUCH's STR tree needs a fanout of at least 4 and leaves of at least 2
  // entries; validation must reject what TouchJoin would.
  for (size_t fanout : {0, 1, 2, 3}) {
    bad = ok;
    bad.touch_fanout = fanout;
    EXPECT_TRUE(bad.Validate().IsInvalidArgument()) << "fanout " << fanout;
  }
  for (size_t leaf : {0, 1}) {
    bad = ok;
    bad.touch_leaf = leaf;
    EXPECT_TRUE(bad.Validate().IsInvalidArgument()) << "leaf " << leaf;
  }
  JoinOptions smallest = ok;
  smallest.touch_fanout = 4;
  smallest.touch_leaf = 2;
  EXPECT_TRUE(smallest.Validate().ok());
  EXPECT_TRUE(TouchJoin(TinyA(), TinyB(), smallest).ok());
}

TEST(TouchJoinTest, FiltersObjectsInEmptySpace) {
  // A-data occupies two far-apart clusters; B objects in the void between
  // them must be filtered without any pairwise comparisons.
  // 64 elements per cluster with 32-entry leaves: STR slabs split the two
  // clusters exactly, so no leaf MBR bridges the void between them.
  geom::ElementVec ea;
  for (int i = 0; i < 64; ++i) {
    ea.emplace_back(i, Aabb::Cube(Vec3(0, 0, static_cast<float>(i)), 1));
    ea.emplace_back(1000 + i,
                    Aabb::Cube(Vec3(100, 0, static_cast<float>(i)), 1));
  }
  geom::ElementVec eb;
  eb.emplace_back(5000, Aabb::Cube(Vec3(50, 0, 25), 1));   // void
  eb.emplace_back(5001, Aabb::Cube(Vec3(-50, 0, 25), 1));  // outside
  JoinOptions options;
  options.epsilon = 1.0f;
  options.touch_fanout = 4;
  options.touch_leaf = 32;
  auto result = TouchJoin(JoinInput::FromElements(ea),
                          JoinInput::FromElements(eb), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->pairs.empty());
  EXPECT_EQ(result->stats.filtered, 2u);
  EXPECT_EQ(result->stats.mbr_tests, 0u);  // never reached a leaf entry
}

TEST(TouchJoinTest, PhaseTimingsAreRecorded) {
  neuro::SegmentDataset da = neuro::UniformSegments(
      1000, Aabb(Vec3(0, 0, 0), Vec3(60, 60, 60)), 4, 1, 0.3f, 3);
  neuro::SegmentDataset db = neuro::UniformSegments(
      1000, Aabb(Vec3(0, 0, 0), Vec3(60, 60, 60)), 4, 1, 0.3f, 4);
  JoinOptions options;
  auto result = TouchJoin(JoinInput::FromSegments(da.segments, da.ids),
                          JoinInput::FromSegments(db.segments, db.ids),
                          options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.build_ns, 0u);
  EXPECT_GT(result->stats.assign_ns, 0u);
  EXPECT_GT(result->stats.probe_ns, 0u);
  EXPECT_GE(result->stats.total_ns, result->stats.build_ns);
}

TEST(TouchJoinTest, PeakBytesCoverTheBuildInputAndTree) {
  // The build holds an A-sized element copy beside the tree it packs; a
  // small B keeps the later phases below that.
  const Aabb domain(Vec3(0, 0, 0), Vec3(60, 60, 60));
  neuro::SegmentDataset da =
      neuro::UniformSegments(2000, domain, 4, 1, 0.3f, 7);
  neuro::SegmentDataset db = neuro::UniformSegments(10, domain, 4, 1, 0.3f, 8);
  JoinInput a = JoinInput::FromSegments(da.segments, da.ids);
  JoinOptions options;
  auto result =
      TouchJoin(a, JoinInput::FromSegments(db.segments, db.ids), options);
  ASSERT_TRUE(result.ok());

  // The tree TouchJoin builds over A.
  rtree::RTreeOptions tree_options;
  tree_options.max_entries = options.touch_fanout;
  tree_options.leaf_capacity = options.touch_leaf;
  geom::ElementVec elements;
  for (uint32_t i = 0; i < a.size(); ++i) elements.emplace_back(i, a.boxes[i]);
  auto tree = rtree::RTree::BulkLoadStr(elements, tree_options);
  ASSERT_TRUE(tree.ok());
  EXPECT_GE(result->stats.peak_bytes,
            a.size() * sizeof(geom::SpatialElement) + tree->MemoryBytes());
}

TEST(PbsmJoinTest, NoDuplicatePairsAcrossCells) {
  // Large objects spanning many grid cells are the duplicate hazard.
  geom::ElementVec ea;
  geom::ElementVec eb;
  for (int i = 0; i < 30; ++i) {
    ea.emplace_back(i, Aabb(Vec3(0, static_cast<float>(i), 0),
                            Vec3(100, static_cast<float>(i) + 5, 5)));
    eb.emplace_back(100 + i, Aabb(Vec3(static_cast<float>(i * 3), 0, 0),
                                  Vec3(static_cast<float>(i * 3) + 5, 100, 5)));
  }
  JoinOptions options;
  options.epsilon = 0.5f;
  options.pbsm_target_per_cell = 4;  // force a fine grid
  auto result = PbsmJoin(JoinInput::FromElements(ea),
                         JoinInput::FromElements(eb), options);
  ASSERT_TRUE(result.ok());
  auto pairs = Sorted(result->pairs);
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end())
      << "PBSM reported a duplicate pair";
  // Cross-hatch: every (a,b) pair intersects.
  EXPECT_EQ(pairs.size(), 30u * 30u);
}

TEST(JoinMethodNameTest, NamesAreStable) {
  EXPECT_STREQ(JoinMethodName(JoinMethod::kTouch), "TOUCH");
  EXPECT_STREQ(JoinMethodName(JoinMethod::kPbsm), "PBSM");
  EXPECT_STREQ(JoinMethodName(JoinMethod::kS3), "S3");
  EXPECT_STREQ(JoinMethodName(JoinMethod::kPlaneSweep), "PlaneSweep");
  EXPECT_STREQ(JoinMethodName(JoinMethod::kNestedLoop), "NestedLoop");
  EXPECT_EQ(AllJoinMethods().size(), 6u);
  EXPECT_STREQ(JoinMethodName(JoinMethod::kScalableSweep), "ScalableSweep");
}

}  // namespace
}  // namespace touch
}  // namespace neurodb
