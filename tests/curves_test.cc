#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "geom/hilbert.h"
#include "geom/morton.h"

namespace neurodb {
namespace geom {
namespace {

TEST(MortonTest, RoundTripExhaustiveSmall) {
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) {
      for (uint32_t z = 0; z < 8; ++z) {
        uint64_t code = MortonEncode(x, y, z);
        uint32_t rx, ry, rz;
        MortonDecode(code, &rx, &ry, &rz);
        ASSERT_EQ(rx, x);
        ASSERT_EQ(ry, y);
        ASSERT_EQ(rz, z);
      }
    }
  }
}

TEST(MortonTest, RoundTripRandomFullWidth) {
  Pcg32 rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint32_t x = rng.NextU32() & 0x1fffff;
    uint32_t y = rng.NextU32() & 0x1fffff;
    uint32_t z = rng.NextU32() & 0x1fffff;
    uint32_t rx, ry, rz;
    MortonDecode(MortonEncode(x, y, z), &rx, &ry, &rz);
    ASSERT_EQ(rx, x);
    ASSERT_EQ(ry, y);
    ASSERT_EQ(rz, z);
  }
}

TEST(MortonTest, OrderingInterleavesAxes) {
  EXPECT_EQ(MortonEncode(0, 0, 0), 0u);
  EXPECT_EQ(MortonEncode(1, 0, 0), 1u);
  EXPECT_EQ(MortonEncode(0, 1, 0), 2u);
  EXPECT_EQ(MortonEncode(0, 0, 1), 4u);
  EXPECT_EQ(MortonEncode(1, 1, 1), 7u);
}

TEST(HilbertTest, RoundTripExhaustiveSmall) {
  for (int bits = 1; bits <= 4; ++bits) {
    uint32_t n = 1u << bits;
    for (uint32_t x = 0; x < n; ++x) {
      for (uint32_t y = 0; y < n; ++y) {
        for (uint32_t z = 0; z < n; ++z) {
          uint64_t idx = HilbertEncode(x, y, z, bits);
          uint32_t rx, ry, rz;
          HilbertDecode(idx, &rx, &ry, &rz, bits);
          ASSERT_EQ(rx, x) << "bits=" << bits;
          ASSERT_EQ(ry, y);
          ASSERT_EQ(rz, z);
        }
      }
    }
  }
}

TEST(HilbertTest, IsABijectionOnSmallCube) {
  const int bits = 3;
  const uint32_t n = 1u << bits;
  std::vector<bool> seen(n * n * n, false);
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t y = 0; y < n; ++y) {
      for (uint32_t z = 0; z < n; ++z) {
        uint64_t idx = HilbertEncode(x, y, z, bits);
        ASSERT_LT(idx, seen.size());
        ASSERT_FALSE(seen[idx]) << "collision at index " << idx;
        seen[idx] = true;
      }
    }
  }
}

TEST(HilbertTest, ConsecutiveIndicesAreGridNeighbors) {
  // The defining property of the Hilbert curve: consecutive curve positions
  // differ by exactly 1 in exactly one coordinate.
  const int bits = 4;
  const uint64_t total = 1ull << (3 * bits);
  uint32_t px, py, pz;
  HilbertDecode(0, &px, &py, &pz, bits);
  for (uint64_t i = 1; i < total; ++i) {
    uint32_t x, y, z;
    HilbertDecode(i, &x, &y, &z, bits);
    uint32_t manhattan = (x > px ? x - px : px - x) +
                         (y > py ? y - py : py - y) +
                         (z > pz ? z - pz : pz - z);
    ASSERT_EQ(manhattan, 1u) << "at index " << i;
    px = x;
    py = y;
    pz = z;
  }
}

TEST(HilbertTest, RoundTripRandomFullWidth) {
  Pcg32 rng(9);
  for (int i = 0; i < 10000; ++i) {
    uint32_t x = rng.NextU32() & 0x1fffff;
    uint32_t y = rng.NextU32() & 0x1fffff;
    uint32_t z = rng.NextU32() & 0x1fffff;
    uint64_t idx = HilbertEncode(x, y, z);
    uint32_t rx, ry, rz;
    HilbertDecode(idx, &rx, &ry, &rz);
    ASSERT_EQ(rx, x);
    ASSERT_EQ(ry, y);
    ASSERT_EQ(rz, z);
  }
}

// The encoder as first written: Skilling's transform with a branch per axis
// per level, then a bit-by-bit interleave. HilbertEncode must return the
// same index for every point — FLAT's pages and the Hilbert shards are cut
// from these keys.
uint64_t ReferenceHilbertEncode(uint32_t xi, uint32_t yi, uint32_t zi,
                                int bits) {
  uint32_t x[3] = {xi, yi, zi};
  uint32_t m = 1u << (bits - 1);
  for (uint32_t q = m; q > 1; q >>= 1) {
    uint32_t p = q - 1;
    for (int i = 0; i < 3; ++i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  for (int i = 1; i < 3; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[2] & q) t ^= q - 1;
  }
  for (int i = 0; i < 3; ++i) x[i] ^= t;
  uint64_t index = 0;
  for (int bit = bits - 1; bit >= 0; --bit) {
    for (int i = 0; i < 3; ++i) {
      index = (index << 1) | ((x[i] >> bit) & 1u);
    }
  }
  return index;
}

TEST(HilbertTest, MatchesReferenceEncoderOnEveryPointOfSmallCube) {
  const int bits = 6;
  const uint32_t n = 1u << bits;
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t y = 0; y < n; ++y) {
      for (uint32_t z = 0; z < n; ++z) {
        ASSERT_EQ(HilbertEncode(x, y, z, bits),
                  ReferenceHilbertEncode(x, y, z, bits))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(HilbertTest, MatchesReferenceEncoderOnRandomFullWidthPoints) {
  Pcg32 rng(21);
  for (int i = 0; i < 100000; ++i) {
    uint32_t x = rng.NextU32() & 0x1fffff;
    uint32_t y = rng.NextU32() & 0x1fffff;
    uint32_t z = rng.NextU32() & 0x1fffff;
    ASSERT_EQ(HilbertEncode(x, y, z), ReferenceHilbertEncode(x, y, z, 21))
        << x << "," << y << "," << z;
  }
}

TEST(HilbertMapperTest, ClampsOutOfDomainPoints) {
  Aabb domain(Vec3(0, 0, 0), Vec3(10, 10, 10));
  HilbertMapper mapper(domain, 8);
  // Outside points map to valid keys (no crash / overflow).
  uint64_t k1 = mapper.Key(Vec3(-100, 5, 5));
  uint64_t k2 = mapper.Key(Vec3(0, 5, 5));
  EXPECT_EQ(k1, k2);
  uint64_t k3 = mapper.Key(Vec3(1000, 1000, 1000));
  uint64_t k4 = mapper.Key(Vec3(10, 10, 10));
  EXPECT_EQ(k3, k4);
}

TEST(HilbertMapperTest, PreservesLocalityBetterThanRandom) {
  // Mean key distance of spatially close point pairs must be far below the
  // mean key distance of random pairs.
  Aabb domain(Vec3(0, 0, 0), Vec3(100, 100, 100));
  HilbertMapper mapper(domain, 10);
  Pcg32 rng(77);
  double close_sum = 0.0;
  double far_sum = 0.0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Vec3 p(static_cast<float>(rng.Uniform(1, 99)),
           static_cast<float>(rng.Uniform(1, 99)),
           static_cast<float>(rng.Uniform(1, 99)));
    Vec3 q = p + Vec3(0.5f, 0.5f, 0.5f);
    Vec3 r(static_cast<float>(rng.Uniform(1, 99)),
           static_cast<float>(rng.Uniform(1, 99)),
           static_cast<float>(rng.Uniform(1, 99)));
    auto key_dist = [&](const Vec3& a, const Vec3& b) {
      uint64_t ka = mapper.Key(a);
      uint64_t kb = mapper.Key(b);
      return static_cast<double>(ka > kb ? ka - kb : kb - ka);
    };
    close_sum += key_dist(p, q);
    far_sum += key_dist(p, r);
  }
  EXPECT_LT(close_sum * 20, far_sum)
      << "Hilbert keys of nearby points should be much closer than random";
}

TEST(HilbertMapperTest, DegenerateDomainAxis) {
  // A flat (2-D) domain must not divide by zero.
  Aabb domain(Vec3(0, 5, 0), Vec3(10, 5, 10));
  HilbertMapper mapper(domain, 8);
  uint64_t k = mapper.Key(Vec3(5, 5, 5));
  (void)k;  // just must not crash; key is valid
  SUCCEED();
}

}  // namespace
}  // namespace geom
}  // namespace neurodb
