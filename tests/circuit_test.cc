#include <gtest/gtest.h>

#include <algorithm>

#include "neuro/circuit.h"
#include "neuro/circuit_generator.h"
#include "neuro/element_id.h"
#include "neuro/morphology_generator.h"

namespace neurodb {
namespace neuro {
namespace {

using geom::Vec3;

CircuitParams SmallParams(uint32_t n = 20, uint64_t seed = 7) {
  CircuitParams p;
  p.num_neurons = n;
  p.seed = seed;
  return p;
}

TEST(ElementIdTest, EncodeDecodeRoundTrip) {
  for (uint32_t gid : {0u, 1u, 999u, (1u << 24) - 1}) {
    for (uint32_t section : {0u, 5u, (1u << 20) - 1}) {
      for (uint32_t segment : {0u, 17u, (1u << 20) - 1}) {
        geom::ElementId id = EncodeSegmentId(gid, section, segment);
        EXPECT_EQ(GidOf(id), gid);
        EXPECT_EQ(SectionOf(id), section);
        EXPECT_EQ(SegmentOf(id), segment);
      }
    }
  }
}

TEST(ElementIdTest, DistinctTriplesGetDistinctIds) {
  EXPECT_NE(EncodeSegmentId(1, 0, 0), EncodeSegmentId(0, 1, 0));
  EXPECT_NE(EncodeSegmentId(0, 1, 0), EncodeSegmentId(0, 0, 1));
}

TEST(CircuitTest, AddNeuronAssignsGids) {
  Circuit c;
  Morphology m = MorphologyGenerator(MorphologyParams::Interneuron(), 1)
                     .Generate(Vec3(0, 0, 0));
  EXPECT_EQ(c.AddNeuron(m), 0u);
  EXPECT_EQ(c.AddNeuron(m), 1u);
  EXPECT_EQ(c.NumNeurons(), 2u);
  EXPECT_EQ(c.neuron(1).gid, 1u);
}

TEST(CircuitTest, FlattenCountsMatchMorphologies) {
  CircuitGenerator gen(SmallParams());
  auto circuit = gen.Generate();
  ASSERT_TRUE(circuit.ok());
  SegmentDataset all = circuit->FlattenSegments(NeuriteFilter::kAll);
  EXPECT_EQ(all.size(), circuit->TotalSegments());
  EXPECT_GT(all.size(), 500u);

  SegmentDataset axons = circuit->FlattenSegments(NeuriteFilter::kAxons);
  SegmentDataset dendrites =
      circuit->FlattenSegments(NeuriteFilter::kDendrites);
  EXPECT_EQ(axons.size() + dendrites.size(), all.size());
  EXPECT_GT(axons.size(), 0u);
  EXPECT_GT(dendrites.size(), 0u);
}

TEST(CircuitTest, FlattenedIdsIdentifyTheirNeuron) {
  CircuitGenerator gen(SmallParams(10, 3));
  auto circuit = gen.Generate();
  ASSERT_TRUE(circuit.ok());
  SegmentDataset all = circuit->FlattenSegments();
  for (size_t i = 0; i < all.size(); ++i) {
    uint32_t gid = GidOf(all.ids[i]);
    uint32_t section = SectionOf(all.ids[i]);
    uint32_t segment = SegmentOf(all.ids[i]);
    ASSERT_LT(gid, circuit->NumNeurons());
    const Morphology& m = circuit->neuron(gid).morphology;
    ASSERT_LT(section, m.NumSections());
    ASSERT_LT(segment, m.section(section).NumSegments());
    // The stored capsule matches the morphology's segment.
    geom::Segment expect = m.section(section).SegmentAt(segment);
    ASSERT_EQ(all.segments[i].a, expect.a);
    ASSERT_EQ(all.segments[i].b, expect.b);
  }
}

TEST(SegmentResolverTest, FindsEveryFlattenedSegment) {
  CircuitGenerator gen(SmallParams(8, 5));
  auto circuit = gen.Generate();
  ASSERT_TRUE(circuit.ok());
  SegmentDataset all = circuit->FlattenSegments();
  SegmentResolver resolver;
  resolver.AddDataset(all);
  EXPECT_EQ(resolver.size(), all.size());
  for (size_t i = 0; i < all.size(); i += 13) {
    auto seg = resolver.Find(all.ids[i]);
    ASSERT_TRUE(seg.ok());
    EXPECT_EQ(seg->a, all.segments[i].a);
  }
  EXPECT_TRUE(resolver.Find(EncodeSegmentId(9999, 0, 0)).status().IsNotFound());
}

TEST(SegmentResolverTest, FindsEveryIdAcrossGrowingDatasets) {
  // Datasets added one after another grow the table several times. Ids at
  // both ends of the range, and ids that share a home slot, resolve too.
  CircuitGenerator gen(SmallParams(12, 6));
  auto circuit = gen.Generate();
  ASSERT_TRUE(circuit.ok());
  const SegmentDataset all = circuit->FlattenSegments();
  ASSERT_GT(all.size(), 200u);

  std::vector<SegmentDataset> parts(5);
  for (size_t i = 0; i < all.size(); ++i) {
    parts[std::min<size_t>(4, i * 7 / all.size())].Add(all.segments[i],
                                                       all.ids[i]);
  }
  // The first neuron's first segment has id 0.
  ASSERT_EQ(all.ids[0], 0u);
  SegmentDataset extremes;
  extremes.Add(geom::Segment(geom::Vec3(-1, -2, -3), geom::Vec3(0, 0, 0), 1),
               UINT64_MAX);
  parts.push_back(extremes);
  // Ids whose product with the table's Fibonacci multiplier is a small
  // number all start probing at the first slot, at every table size.
  uint64_t inverse = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 5; ++i) inverse *= 2 - 0x9E3779B97F4A7C15ull * inverse;
  SegmentDataset colliding;
  for (uint64_t k = 1; k < 12; ++k) {
    const float x = static_cast<float>(k);
    colliding.Add(geom::Segment(geom::Vec3(x, 0, 0), geom::Vec3(x, 1, 0), x),
                  k * inverse);
  }
  parts.push_back(colliding);

  SegmentResolver resolver;
  EXPECT_EQ(resolver.Lookup(0), nullptr);
  size_t added = 0;
  for (size_t j = 0; j < parts.size(); ++j) {
    resolver.AddDataset(parts[j]);
    added += parts[j].size();
    EXPECT_EQ(resolver.size(), added);
    // Every id added so far resolves to its own segment; no other does.
    for (size_t p = 0; p < parts.size(); ++p) {
      for (size_t i = 0; i < parts[p].size(); ++i) {
        const geom::ElementId id = parts[p].ids[i];
        const geom::Segment* got = resolver.Lookup(id);
        ASSERT_EQ(got != nullptr, p <= j) << "id " << id << ", part " << j;
        if (got == nullptr) continue;
        EXPECT_EQ(got->a, parts[p].segments[i].a) << "id " << id;
        EXPECT_EQ(got->b, parts[p].segments[i].b) << "id " << id;
        EXPECT_EQ(got->radius, parts[p].segments[i].radius) << "id " << id;
      }
    }
  }
  EXPECT_EQ(resolver.Find(0)->b, all.segments[0].b);
  EXPECT_EQ(resolver.Find(UINT64_MAX)->a, geom::Vec3(-1, -2, -3));
  for (geom::ElementId absent :
       {EncodeSegmentId(9999, 0, 0), EncodeSegmentId(0, 0, 999999),
        UINT64_MAX - 1, 12 * inverse, uint64_t{1} << 59}) {
    EXPECT_TRUE(resolver.Find(absent).status().IsNotFound()) << absent;
    EXPECT_EQ(resolver.Lookup(absent), nullptr) << absent;
  }
}

TEST(CircuitGeneratorTest, DeterministicForSameSeed) {
  auto a = CircuitGenerator(SmallParams(15, 99)).Generate();
  auto b = CircuitGenerator(SmallParams(15, 99)).Generate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->TotalSegments(), b->TotalSegments());
  EXPECT_EQ(a->neuron(7).morphology.soma_center(),
            b->neuron(7).morphology.soma_center());
}

TEST(CircuitGeneratorTest, ValidatesParams) {
  CircuitParams bad = SmallParams();
  bad.num_neurons = 0;
  EXPECT_FALSE(CircuitGenerator(bad).Generate().ok());

  bad = SmallParams();
  bad.layer_weights.clear();
  EXPECT_FALSE(CircuitGenerator(bad).Generate().ok());

  bad = SmallParams();
  bad.layer_weights = {0.0f, 0.0f};
  EXPECT_FALSE(CircuitGenerator(bad).Generate().ok());

  bad = SmallParams();
  bad.pyramidal_fraction = 1.5f;
  EXPECT_FALSE(CircuitGenerator(bad).Generate().ok());

  bad = SmallParams();
  bad.column_size.y = -1.0f;
  EXPECT_FALSE(CircuitGenerator(bad).Generate().ok());
}

TEST(CircuitGeneratorTest, SomataRespectColumnAndLayers) {
  CircuitParams params = SmallParams(60, 11);
  CircuitGenerator gen(params);
  auto circuit = gen.Generate();
  ASSERT_TRUE(circuit.ok());
  for (const auto& neuron : circuit->neurons()) {
    const Vec3& soma = neuron.morphology.soma_center();
    EXPECT_GE(soma.x, 0.0f);
    EXPECT_LE(soma.x, params.column_size.x);
    EXPECT_GE(soma.y, 0.0f);
    EXPECT_LE(soma.y, params.column_size.y);
    EXPECT_GE(soma.z, 0.0f);
    EXPECT_LE(soma.z, params.column_size.z);
  }
}

TEST(CircuitGeneratorTest, LayerBandsPartitionTheColumn) {
  CircuitGenerator gen(SmallParams());
  float prev_hi = -1.0f;
  const size_t layers = gen.params().layer_weights.size();
  float column_height = gen.params().column_size.y;
  for (size_t l = layers; l-- > 0;) {  // bottom-up
    auto [lo, hi] = gen.LayerBand(l);
    EXPECT_LT(lo, hi);
    if (prev_hi >= 0.0f) {
      EXPECT_FLOAT_EQ(lo, prev_hi);
    }
    prev_hi = hi;
  }
  EXPECT_FLOAT_EQ(prev_hi, column_height);
}

TEST(CircuitGeneratorTest, LayerWeightsSkewDensity) {
  // Put almost everything in the top layer; somata must concentrate there.
  CircuitParams params = SmallParams(100, 17);
  params.layer_weights = {0.9f, 0.025f, 0.025f, 0.025f, 0.025f};
  auto circuit = CircuitGenerator(params).Generate();
  ASSERT_TRUE(circuit.ok());
  auto [lo, hi] = CircuitGenerator(params).LayerBand(0);
  size_t in_top = 0;
  for (const auto& n : circuit->neurons()) {
    float y = n.morphology.soma_center().y;
    if (y >= lo && y <= hi) ++in_top;
  }
  EXPECT_GT(in_top, 75u);
}

TEST(CircuitTest, GeneratedCircuitValidates) {
  auto circuit = CircuitGenerator(SmallParams(12, 23)).Generate();
  ASSERT_TRUE(circuit.ok());
  EXPECT_TRUE(circuit->Validate().ok());
  EXPECT_TRUE(circuit->Bounds().IsValid());
  EXPECT_GT(circuit->TotalCableLength(), 0.0);
}

}  // namespace
}  // namespace neuro
}  // namespace neurodb
