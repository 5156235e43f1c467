#include "scout/structure.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "neuro/circuit_generator.h"
#include "neuro/workload.h"
#include "scout/prefetcher.h"

namespace neurodb {
namespace scout {
namespace {

using geom::Aabb;
using geom::ElementId;
using geom::Segment;
using geom::Vec3;

/// Builds a resolver over a hand-crafted set of segments.
class StructureFixture : public ::testing::Test {
 protected:
  void AddChain(ElementId base, Vec3 start, Vec3 step, int count,
                float radius = 0.3f) {
    Vec3 p = start;
    for (int i = 0; i < count; ++i) {
      Vec3 q = p + step;
      dataset_.Add(Segment(p, q, radius), base + i);
      p = q;
    }
  }

  void Finish() { resolver_.AddDataset(dataset_); }

  std::vector<ElementId> AllIds() const { return dataset_.ids; }

  neuro::SegmentDataset dataset_;
  neuro::SegmentResolver resolver_;
};

TEST_F(StructureFixture, SingleChainIsOneStructure) {
  AddChain(100, Vec3(0, 0, 0), Vec3(2, 0, 0), 10);
  Finish();
  Aabb box(Vec3(-1, -1, -1), Vec3(30, 1, 1));
  auto structures = ExtractStructures(AllIds(), resolver_, box);
  ASSERT_TRUE(structures.ok());
  ASSERT_EQ(structures->size(), 1u);
  EXPECT_EQ((*structures)[0].elements.size(), 10u);
}

TEST_F(StructureFixture, DisjointChainsAreSeparateStructures) {
  AddChain(100, Vec3(0, 0, 0), Vec3(2, 0, 0), 5);
  AddChain(200, Vec3(0, 50, 0), Vec3(2, 0, 0), 5);
  Finish();
  Aabb box(Vec3(-5, -5, -5), Vec3(60, 60, 5));
  auto structures = ExtractStructures(AllIds(), resolver_, box);
  ASSERT_TRUE(structures.ok());
  EXPECT_EQ(structures->size(), 2u);
}

TEST_F(StructureFixture, ExitDetectionFindsBoundaryCrossing) {
  // Chain runs from x=0 to x=20; the box ends at x=10.
  AddChain(100, Vec3(0, 0, 0), Vec3(2, 0, 0), 10);
  Finish();
  Aabb box(Vec3(-1, -1, -1), Vec3(10.5f, 1, 1));
  // Result = segments intersecting the box (first 6 segments: [0,2]..[10,12]).
  std::vector<ElementId> result;
  for (size_t i = 0; i < dataset_.size(); ++i) {
    if (dataset_.segments[i].Bounds().Intersects(box)) {
      result.push_back(dataset_.ids[i]);
    }
  }
  auto structures = ExtractStructures(result, resolver_, box);
  ASSERT_TRUE(structures.ok());
  ASSERT_EQ(structures->size(), 1u);
  const Structure& s = (*structures)[0];
  ASSERT_TRUE(s.HasExit());
  // The exit direction points in +x.
  EXPECT_GT(s.exits[0].direction.x, 0.9f);
  EXPECT_GT(s.exits[0].point.x, 10.0f);
}

TEST_F(StructureFixture, FullyInteriorStructureHasNoExit) {
  AddChain(100, Vec3(5, 5, 5), Vec3(1, 0, 0), 4);
  Finish();
  Aabb box(Vec3(0, 0, 0), Vec3(50, 50, 50));
  auto structures = ExtractStructures(AllIds(), resolver_, box);
  ASSERT_TRUE(structures.ok());
  ASSERT_EQ(structures->size(), 1u);
  EXPECT_FALSE((*structures)[0].HasExit());
}

TEST_F(StructureFixture, BranchingChainsRemainOneStructure) {
  // A trunk with two children sharing its endpoint.
  AddChain(100, Vec3(0, 0, 0), Vec3(2, 0, 0), 5);   // ends at (10,0,0)
  AddChain(200, Vec3(10, 0, 0), Vec3(1, 2, 0), 4);  // branch up
  AddChain(300, Vec3(10, 0, 0), Vec3(1, -2, 0), 4);  // branch down
  Finish();
  Aabb box(Vec3(-5, -20, -5), Vec3(30, 20, 5));
  auto structures = ExtractStructures(AllIds(), resolver_, box);
  ASSERT_TRUE(structures.ok());
  EXPECT_EQ(structures->size(), 1u);
  EXPECT_EQ((*structures)[0].elements.size(), 13u);
}

TEST_F(StructureFixture, ConnectTolControlsMerging) {
  // Two chains 2 apart: connected at tol=3, separate at tol=1.
  AddChain(100, Vec3(0, 0, 0), Vec3(2, 0, 0), 3);
  AddChain(200, Vec3(0, 2, 0), Vec3(2, 0, 0), 3);
  Finish();
  Aabb box(Vec3(-5, -5, -5), Vec3(20, 20, 5));
  StructureOptions loose;
  loose.connect_tol = 3.0f;
  auto merged = ExtractStructures(AllIds(), resolver_, box, loose);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), 1u);

  StructureOptions tight;
  tight.connect_tol = 1.0f;
  auto split = ExtractStructures(AllIds(), resolver_, box, tight);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->size(), 2u);
}

TEST_F(StructureFixture, UnknownIdFails) {
  AddChain(100, Vec3(0, 0, 0), Vec3(1, 0, 0), 2);
  Finish();
  auto bad = ExtractStructures({999999}, resolver_,
                               Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST_F(StructureFixture, InvalidToleranceFails) {
  Finish();
  StructureOptions bad;
  bad.connect_tol = 0.0f;
  EXPECT_FALSE(
      ExtractStructures({}, resolver_, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), bad)
          .ok());
}

// --------------------------------------------------------------------------
// Differential test: ExtractStructures against all-pairs connectivity
// --------------------------------------------------------------------------

constexpr float kTolerances[] = {0.1f, 0.3f, 1.0f, 2.5f, 15.0f};

/// Reference extraction: tests every pair of segments and grows each
/// component breadth-first from its lowest result index, so structures come
/// out in that order, with exits in result order.
std::vector<Structure> AllPairsStructures(
    const std::vector<ElementId>& ids, const neuro::SegmentResolver& resolver,
    const Aabb& box, float tol) {
  const double tol2 = static_cast<double>(tol) * tol;
  std::vector<Segment> segs;
  for (ElementId id : ids) segs.push_back(resolver.Find(id).value());
  auto touching = [&](const Segment& s, const Segment& t) {
    for (const Vec3& p : {s.a, s.b}) {
      for (const Vec3& q : {t.a, t.b}) {
        if (geom::SquaredDistance(p, q) <= tol2) return true;
      }
    }
    return false;
  };

  const size_t n = segs.size();
  std::vector<size_t> component(n, SIZE_MAX);
  size_t components = 0;
  for (size_t first = 0; first < n; ++first) {
    if (component[first] != SIZE_MAX) continue;
    std::vector<size_t> members = {first};
    component[first] = components;
    for (size_t k = 0; k < members.size(); ++k) {
      for (size_t j = 0; j < n; ++j) {
        if (component[j] == SIZE_MAX && touching(segs[members[k]], segs[j])) {
          component[j] = components;
          members.push_back(j);
        }
      }
    }
    ++components;
  }

  std::vector<Structure> out(components);
  for (size_t i = 0; i < n; ++i) {
    Structure& s = out[component[i]];
    s.elements.push_back(ids[i]);
    const bool a_in = box.Contains(segs[i].a);
    if (a_in == box.Contains(segs[i].b)) continue;
    const Vec3& inside = a_in ? segs[i].a : segs[i].b;
    const Vec3& outside = a_in ? segs[i].b : segs[i].a;
    Vec3 dir = ((outside - inside).Normalized() +
                (outside - box.Center()).Normalized())
                   .Normalized();
    if (dir.SquaredNorm() > 0.0) s.exits.push_back(StructureExit{outside, dir});
  }
  for (Structure& s : out) std::sort(s.elements.begin(), s.elements.end());
  return out;
}

/// Reference extraction for large inputs: the x-sort sweep as it ran
/// before the joint rule, the key sort and the resolver's id table. It
/// copies each segment out of the resolver, sorts all finite endpoints by x
/// with a comparator and sweeps every x slab of width tol.
std::vector<Structure> XSortSweepStructures(
    const std::vector<ElementId>& ids, const neuro::SegmentResolver& resolver,
    const Aabb& box, float tol) {
  struct End {
    Vec3 p;
    uint32_t segment;
  };
  const size_t n = ids.size();
  std::vector<Segment> segs(n);
  std::vector<End> ends;
  for (size_t i = 0; i < n; ++i) {
    segs[i] = resolver.Find(ids[i]).value();
    for (const Vec3& p : {segs[i].a, segs[i].b}) {
      if (geom::IsFinitePoint(p)) {
        ends.push_back(End{p, static_cast<uint32_t>(i)});
      }
    }
  }
  std::sort(ends.begin(), ends.end(),
            [](const End& l, const End& r) { return l.p.x < r.p.x; });
  const double tol2 = static_cast<double>(tol) * tol;
  std::vector<uint32_t> parent(n);
  for (uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t a = 0; a < ends.size(); ++a) {
    for (size_t b = a + 1; b < ends.size(); ++b) {
      const float gap = ends[b].p.x - ends[a].p.x;
      if (static_cast<double>(gap) * gap > tol2) break;
      if (ends[b].segment != ends[a].segment &&
          geom::SquaredDistance(ends[a].p, ends[b].p) <= tol2) {
        const uint32_t ra = find(ends[a].segment);
        const uint32_t rb = find(ends[b].segment);
        if (ra != rb) parent[rb] = ra;
      }
    }
  }
  std::vector<uint32_t> structure_of_root(n, UINT32_MAX);
  std::vector<Structure> out;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t& slot = structure_of_root[find(i)];
    if (slot == UINT32_MAX) {
      slot = static_cast<uint32_t>(out.size());
      out.emplace_back();
    }
    Structure& s = out[slot];
    s.elements.push_back(ids[i]);
    const bool a_in = box.Contains(segs[i].a);
    if (a_in == box.Contains(segs[i].b)) continue;
    const Vec3& inside = a_in ? segs[i].a : segs[i].b;
    const Vec3& outside = a_in ? segs[i].b : segs[i].a;
    Vec3 dir = ((outside - inside).Normalized() +
                (outside - box.Center()).Normalized())
                   .Normalized();
    if (dir.SquaredNorm() > 0.0) s.exits.push_back(StructureExit{outside, dir});
  }
  for (Structure& s : out) std::sort(s.elements.begin(), s.elements.end());
  return out;
}

/// Exact equality of two extractions: structures, members and exits.
void ExpectSameStructures(const std::vector<Structure>& got,
                          const std::vector<Structure>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].elements, want[s].elements)
        << label << ", structure " << s;
    ASSERT_EQ(got[s].exits.size(), want[s].exits.size())
        << label << ", structure " << s;
    for (size_t e = 0; e < want[s].exits.size(); ++e) {
      EXPECT_TRUE(got[s].exits[e].point == want[s].exits[e].point)
          << label << ", structure " << s << ", exit " << e;
      EXPECT_TRUE(got[s].exits[e].direction == want[s].exits[e].direction)
          << label << ", structure " << s << ", exit " << e;
    }
  }
}

/// A segment set, its resolver, and ExtractStructures checked against the
/// reference over the ids in dataset order and in a shuffled order.
class SweepFixture : public ::testing::Test {
 protected:
  void Add(const Vec3& a, const Vec3& b) {
    dataset_.Add(Segment(a, b, 0.2f), next_id_++);
  }

  /// Returns the number of structures the reference found in dataset order.
  size_t Check(const Aabb& box, float tol, uint64_t shuffle_seed,
               const std::string& label) {
    neuro::SegmentResolver resolver;
    resolver.AddDataset(dataset_);
    std::vector<ElementId> shuffled = dataset_.ids;
    Pcg32 rng(shuffle_seed);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    StructureOptions options;
    options.connect_tol = tol;
    size_t found = 0;
    for (const std::vector<ElementId>* ids : {&dataset_.ids, &shuffled}) {
      const std::string order = ids == &shuffled ? " shuffled" : "";
      auto got = ExtractStructures(*ids, resolver, box, options);
      EXPECT_TRUE(got.ok()) << label << order;
      if (!got.ok()) return 0;
      const std::vector<Structure> want =
          AllPairsStructures(*ids, resolver, box, tol);
      ExpectSameStructures(*got, want, label + order);
      if (ids == &dataset_.ids) found = want.size();
    }
    return found;
  }

  neuro::SegmentDataset dataset_;
  ElementId next_id_ = 1000;
};

Vec3 RandomPoint(Pcg32& rng, float lo, float hi) {
  return Vec3(static_cast<float>(rng.Uniform(lo, hi)),
              static_cast<float>(rng.Uniform(lo, hi)),
              static_cast<float>(rng.Uniform(lo, hi)));
}

Vec3 RandomDirection(Pcg32& rng) {
  Vec3 d(static_cast<float>(rng.NextGaussian()),
         static_cast<float>(rng.NextGaussian()),
         static_cast<float>(rng.NextGaussian()));
  return d.SquaredNorm() > 0.0 ? d.Normalized() : Vec3(1, 0, 0);
}

TEST_F(SweepFixture, RandomCloudsMatchAllPairs) {
  const Aabb box(Vec3(-12, -10, -14), Vec3(15, 13, 11));
  for (float tol : kTolerances) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      dataset_ = neuro::SegmentDataset();
      Pcg32 rng(seed * 7919 + static_cast<uint64_t>(tol * 10));
      // Jagged chains whose links start up to 1.5 tol from the previous
      // link's end, so about two joints in three connect, plus loose
      // segments; coordinates span negative and positive values.
      for (int chain = 0; chain < 12; ++chain) {
        Vec3 p = RandomPoint(rng, -30, 30);
        for (int link = 0; link < 15; ++link) {
          Vec3 q = p + RandomDirection(rng) *
                           static_cast<float>(rng.Uniform(0.5, 3.0 * tol));
          Add(p, q);
          p = q + RandomDirection(rng) *
                      static_cast<float>(rng.Uniform(0.0, 1.5 * tol));
        }
      }
      for (int loose = 0; loose < 60; ++loose) {
        Vec3 a = RandomPoint(rng, -30, 30);
        Add(a, a + RandomDirection(rng) *
                       static_cast<float>(rng.Uniform(0.1, 4.0)));
      }
      Check(box, tol, seed,
            "cloud tol=" + std::to_string(tol) + " seed=" +
                std::to_string(seed));
    }
  }
}

TEST_F(SweepFixture, LatticeEndpointsMatchAllPairs) {
  // Endpoints on a lattice of pitch tol (computed in float, so neighbour
  // gaps land a rounding step either side of tol): the sweep's x cut-off
  // meets many gaps right at the tolerance.
  for (float tol : kTolerances) {
    const Aabb box(Vec3(-2.5f, -2.5f, -2.5f) * tol, Vec3(2, 2, 2) * tol);
    dataset_ = neuro::SegmentDataset();
    Pcg32 rng(static_cast<uint64_t>(tol * 1000));
    auto lattice = [&] {
      return Vec3(static_cast<float>(rng.NextBounded(13)) * tol - 6 * tol,
                  static_cast<float>(rng.NextBounded(13)) * tol - 6 * tol,
                  static_cast<float>(rng.NextBounded(13)) * tol - 6 * tol);
    };
    for (int i = 0; i < 250; ++i) {
      Vec3 a = lattice();
      Vec3 b = lattice();
      if (a == b) b.x += 4.0f * tol;
      Add(a, b);
    }
    Check(box, tol, 99, "lattice tol=" + std::to_string(tol));
  }
}

TEST_F(SweepFixture, HubsMatchAllPairs) {
  // Many sections starting at one point (a soma or branch point), some at
  // a small offset, with children continuing from their tips.
  const Aabb box(Vec3(-20, -20, -20), Vec3(5, 5, 5));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    Pcg32 rng(static_cast<uint64_t>(tol * 100) + 5);
    for (const Vec3& hub : {Vec3(-8, -8, -8), Vec3(4, -2.5f, 0.5f),
                            Vec3(-40, 12, -3)}) {
      for (int section = 0; section < 40; ++section) {
        Vec3 start = hub;
        if (section % 4 == 3) {
          start = hub + RandomDirection(rng) *
                            static_cast<float>(rng.Uniform(0.0, 2.0 * tol));
        }
        Vec3 tip = start + RandomDirection(rng) *
                               static_cast<float>(rng.Uniform(2.0, 12.0));
        Add(start, tip);
        if (section % 3 == 0) {
          Add(tip, tip + RandomDirection(rng) *
                             static_cast<float>(rng.Uniform(1.0, 6.0)));
        }
      }
    }
    Check(box, tol, 7, "hubs tol=" + std::to_string(tol));
  }
}

TEST_F(SweepFixture, EndpointsTolApartConnectAndOneFloatStepFurtherDoNot) {
  const Aabb box(Vec3(-1000, -1000, -1000), Vec3(0, 0, 0));
  for (float tol : kTolerances) {
    for (bool beyond : {false, true}) {
      dataset_ = neuro::SegmentDataset();
      const float gap = beyond ? std::nextafter(tol, 2.0f * tol) : tol;
      // Collinear pairs along each axis, end to start `gap` apart. The
      // near ends sit at -2 gap and -gap, at 0 and gap, or at -gap and 0,
      // so their difference is exactly `gap` in float.
      size_t pairs = 0;
      for (int axis = 0; axis < 3; ++axis) {
        for (float near : {-2.0f * gap, 0.0f, -gap}) {
          Vec3 base(-5.5f, -9.25f, -13.0f);
          base[(axis + 1) % 3] -= 200.0f * static_cast<float>(++pairs);
          Vec3 a_end = base;
          a_end[axis] = near;
          Vec3 a_start = a_end;
          a_start[axis] -= 3.0f;
          Vec3 b_start = a_end;
          b_start[axis] = near + gap;
          Vec3 b_end = b_start;
          b_end[axis] += 3.0f;
          Add(a_start, a_end);
          Add(b_start, b_end);
        }
      }
      const std::string label = std::string(beyond ? "beyond" : "exact") +
                                 " tol=" + std::to_string(tol);
      const size_t found = Check(box, tol, 3, label);
      EXPECT_EQ(found, beyond ? 2 * pairs : pairs) << label;
    }
  }
}

TEST_F(SweepFixture, NonFiniteCoordinatesMatchAllPairs) {
  // LoadCircuit checks radii but not points, and a segment's bounds skip a
  // NaN end, so a result can hold non-finite endpoints; they never connect.
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kBad[] = {kNaN, -kNaN, kInf, -kInf};
  const Aabb box(Vec3(-2, -2, -2), Vec3(2, 2, 2));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    Pcg32 rng(static_cast<uint64_t>(tol * 10) + 11);
    for (int i = 0; i < 200; ++i) {
      Vec3 a = RandomPoint(rng, -3, 3);
      Vec3 b = a + RandomDirection(rng) *
                       static_cast<float>(rng.Uniform(0.1, 2.0));
      if (i % 3 == 0) {
        a[static_cast<int>(rng.NextBounded(3))] = kBad[rng.NextBounded(4)];
      }
      Add(a, b);
    }
    Check(box, tol, 5, "non-finite tol=" + std::to_string(tol));
  }
}

TEST_F(SweepFixture, ChainsSharingExactJointsMatchAllPairs) {
  // Sections as consecutive ids whose links share exact joints (the joint
  // rule's case), some ending within tol of another chain's joint, some
  // starting from another chain's tip; Check also runs them shuffled.
  const Aabb box(Vec3(-9, -9, -9), Vec3(9, 9, 9));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    Pcg32 rng(static_cast<uint64_t>(tol * 100) + 17);
    std::vector<Vec3> tips;
    for (int chain = 0; chain < 30; ++chain) {
      Vec3 p = chain % 3 == 2 && !tips.empty()
                   ? tips[rng.NextBounded(static_cast<uint32_t>(tips.size()))]
                   : RandomPoint(rng, -12, 12);
      for (int link = 0; link < 8; ++link) {
        const Vec3 q = p + RandomDirection(rng) *
                               static_cast<float>(rng.Uniform(0.2, 3.0));
        Add(p, q);
        p = q;
      }
      tips.push_back(p);
    }
    Check(box, tol, 21, "exact joints tol=" + std::to_string(tol));
  }
}

TEST_F(SweepFixture, JointsAtSignedZerosMatchAllPairs) {
  // -0.0 == +0.0, so a joint written with either sign is one point; chains
  // through the origin mix the signs on every axis.
  const float kZeros[] = {-0.0f, 0.0f};
  const Aabb box(Vec3(-3, -3, -3), Vec3(3, 3, 3));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    for (int mask = 0; mask < 8; ++mask) {
      const Vec3 end(kZeros[mask & 1], kZeros[(mask >> 1) & 1],
                     kZeros[(mask >> 2) & 1]);
      const Vec3 start(kZeros[~mask & 1], kZeros[(~mask >> 1) & 1],
                       kZeros[(~mask >> 2) & 1]);
      const float f = static_cast<float>(mask + 1);
      Add(Vec3(-f, 0.5f * f, 1), end);
      Add(start, Vec3(f, -0.5f * f, -1));
    }
    const size_t found = Check(box, tol, 4, "signed zeros");
    EXPECT_EQ(found, 1u) << "tol=" << tol;
  }
}

TEST_F(SweepFixture, NonFiniteSharedJointsDoNotConnect) {
  // Consecutive ids whose joint is the same non-finite point: the joint is
  // no point at all, so the two segments stay apart (inf == inf, and the
  // joint rule must not take that for a shared point).
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const Aabb box(Vec3(-50, -50, -50), Vec3(50, 50, 50));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    size_t pairs = 0;
    for (const Vec3& joint :
         {Vec3(kInf, 0, 0), Vec3(0, -kInf, 0), Vec3(0, 0, kInf),
          Vec3(kInf, kInf, -kInf), Vec3(kNaN, 0, 0), Vec3(1, 2, kNaN)}) {
      const float y = 20.0f * static_cast<float>(pairs++) - 40.0f;
      Add(Vec3(0, y, 0), joint);
      Add(joint, Vec3(0, y, 4.0f * tol));
    }
    const size_t found = Check(box, tol, 8, "non-finite joints");
    EXPECT_EQ(found, 2 * pairs) << "tol=" << tol;
  }
}

TEST_F(SweepFixture, HubSharedByEverySegmentMatchesAllPairs) {
  // Sixty segments start at one point, half of them as consecutive ids
  // ending there first, plus a ring of loose tips around the hub.
  const Vec3 hub(1.25f, -2.5f, 0.75f);
  const Aabb box(Vec3(-6, -6, -6), Vec3(6, 6, 6));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    Pcg32 rng(static_cast<uint64_t>(tol * 10) + 23);
    for (int i = 0; i < 60; ++i) {
      const Vec3 tip = hub + RandomDirection(rng) *
                                 static_cast<float>(rng.Uniform(0.5, 9.0));
      if (i % 2 == 0) {
        Add(tip, hub);
      } else {
        Add(hub, tip);
      }
    }
    for (int i = 0; i < 20; ++i) {
      const Vec3 a = hub + RandomDirection(rng) *
                               static_cast<float>(rng.Uniform(0.0, 2.0 * tol));
      Add(a, a + RandomDirection(rng) * 3.0f);
    }
    const size_t found = Check(box, tol, 13, "hub tol=" + std::to_string(tol));
    EXPECT_LE(found, 21u);
  }
}

TEST_F(SweepFixture, DuplicateSegmentsMatchAllPairs) {
  // The same segment under several ids, next to each other and apart, and
  // reversed copies: duplicates connect through every shared endpoint.
  const Aabb box(Vec3(-10, -10, -10), Vec3(10, 10, 10));
  for (float tol : kTolerances) {
    dataset_ = neuro::SegmentDataset();
    Pcg32 rng(static_cast<uint64_t>(tol * 10) + 29);
    std::vector<std::pair<Vec3, Vec3>> originals;
    for (int i = 0; i < 40; ++i) {
      const Vec3 a = RandomPoint(rng, -12, 12);
      const Vec3 b = a + RandomDirection(rng) *
                             static_cast<float>(rng.Uniform(0.5, 5.0));
      originals.emplace_back(a, b);
      Add(a, b);
      if (i % 3 == 0) Add(a, b);
      if (i % 5 == 0) Add(b, a);
    }
    for (const auto& [a, b] : originals) Add(a, b);
    Check(box, tol, 31, "duplicates tol=" + std::to_string(tol));
  }
}

TEST_F(SweepFixture, EmptyResultHasNoStructures) {
  for (float tol : kTolerances) {
    EXPECT_EQ(Check(Aabb::Cube(Vec3(0, 0, 0), 4), tol, 1, "empty"), 0u);
  }
}

// Every step of sessions over a 300-neuron column, with results in id order
// (cached sessions) and in crawl order (uncached ones), against the x-sort
// sweep: the joint rule fires on most of a cached step's section joints.
TEST(ColumnStructureTest, SessionStepsMatchTheXSortSweep) {
  neuro::CircuitParams params;
  params.num_neurons = 300;
  params.seed = 42;
  params.layer_weights = {0.05f, 0.40f, 0.25f, 0.20f, 0.10f};
  auto circuit = neuro::CircuitGenerator(params).Generate();
  ASSERT_TRUE(circuit.ok());
  engine::QueryEngine db;
  ASSERT_TRUE(db.LoadCircuit(*circuit).ok());

  std::vector<std::vector<Aabb>> paths;
  for (uint32_t gid : {3u, 77u, 151u, 240u}) {
    auto path = neuro::FollowBranchPath(*circuit, gid, 10.0f, 0);
    ASSERT_TRUE(path.ok());
    paths.push_back(neuro::PathQueries(*path, 30.0f));
  }
  paths.push_back(neuro::PathQueries(
      neuro::RandomWalkPath(circuit->Bounds(), 40, 10.0f, 5), 30.0f));

  size_t steps = 0, structures = 0;
  for (engine::CachePolicy policy :
       {engine::CachePolicy::kDelta, engine::CachePolicy::kCold}) {
    const std::string order =
        policy == engine::CachePolicy::kDelta ? "id order" : "crawl order";
    for (size_t p = 0; p < paths.size(); ++p) {
      auto session = db.OpenSession(PrefetchMethod::kScout, policy);
      ASSERT_TRUE(session.ok());
      for (size_t i = 0; i < paths[p].size(); ++i) {
        const Aabb& box = paths[p][i];
        std::vector<ElementId> ids;
        geom::VectorVisitor visitor(&ids);
        ASSERT_TRUE(session->Step(box, visitor).ok());
        for (float tol : {0.5f, 1.0f, 3.0f}) {
          StructureOptions options;
          options.connect_tol = tol;
          auto got = ExtractStructures(ids, db.resolver(), box, options);
          ASSERT_TRUE(got.ok());
          ExpectSameStructures(
              *got, XSortSweepStructures(ids, db.resolver(), box, tol),
              order + ", path " + std::to_string(p) + ", step " +
                  std::to_string(i) + ", tol " + std::to_string(tol));
          structures += got->size();
        }
        ++steps;
      }
    }
  }
  EXPECT_GT(steps, 100u);
  EXPECT_GT(structures, steps);
}

TEST(PrefetcherFactoryTest, ValidatesContext) {
  PrefetchContext empty;
  // None works without wiring.
  EXPECT_TRUE(MakePrefetcher(PrefetchMethod::kNone, empty).ok());
  // Others need index + pool.
  EXPECT_FALSE(MakePrefetcher(PrefetchMethod::kHilbert, empty).ok());
  EXPECT_FALSE(MakePrefetcher(PrefetchMethod::kScout, empty).ok());
}

TEST(PrefetcherFactoryTest, NamesMatchMethods) {
  EXPECT_STREQ(PrefetchMethodName(PrefetchMethod::kNone), "None");
  EXPECT_STREQ(PrefetchMethodName(PrefetchMethod::kHilbert), "Hilbert");
  EXPECT_STREQ(PrefetchMethodName(PrefetchMethod::kExtrapolation),
               "Extrapolation");
  EXPECT_STREQ(PrefetchMethodName(PrefetchMethod::kScout), "SCOUT");
  EXPECT_EQ(AllPrefetchMethods().size(), 4u);
}

}  // namespace
}  // namespace scout
}  // namespace neurodb
