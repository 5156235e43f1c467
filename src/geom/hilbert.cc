#include "geom/hilbert.h"

#include <algorithm>

#include "geom/morton.h"

namespace neurodb {
namespace geom {

namespace {

constexpr int kDims = 3;

// One step of Skilling's transform for axis x[i] (i > 0) at bit q = 2^level:
// invert x[0]'s bits below q when bit q of x[i] is set, exchange them with
// x[i]'s otherwise. The choice is made by a mask, not a branch: the bit is
// data, so a branch on it mispredicts about half the time.
inline void InvertOrExchange(int level, uint32_t p, uint32_t& x0,
                             uint32_t& xi) {
  const uint32_t set = 0u - ((xi >> level) & 1u);
  const uint32_t exchange = (x0 ^ xi) & p & ~set;
  x0 ^= (p & set) | exchange;
  xi ^= exchange;
}

// Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707 (2004).
// Converts coordinates into the "transposed" Hilbert representation in
// place: after the call, interleaving the bits of x[0..2] (x[0] carries the
// most significant bit of each triple) yields the Hilbert index. The axes
// are held in scalars so the chain through x[0] stays in registers.
void AxesToTranspose(uint32_t x[kDims], int bits) {
  uint32_t x0 = x[0], x1 = x[1], x2 = x[2];
  for (int level = bits - 1; level > 0; --level) {
    const uint32_t p = (1u << level) - 1;  // the bits below q
    x0 ^= p & (0u - ((x0 >> level) & 1u));  // x[0] against itself: invert
    InvertOrExchange(level, p, x0, x1);
    InvertOrExchange(level, p, x0, x2);
  }
  // Gray encode. Skilling's loop XORs q - 1 into t for every set bit q > 1
  // of x[2], so bit j of t is the parity of x[2]'s bits above j: a suffix
  // XOR of x[2] >> 1 (x[2] < 2^bits, so nothing above the curve leaks in).
  x1 ^= x0;
  x2 ^= x1;
  uint32_t t = x2 >> 1;
  t ^= t >> 1;
  t ^= t >> 2;
  t ^= t >> 4;
  t ^= t >> 8;
  t ^= t >> 16;
  x[0] = x0 ^ t;
  x[1] = x1 ^ t;
  x[2] = x2 ^ t;
}

// Inverse of AxesToTranspose.
void TransposeToAxes(uint32_t x[kDims], int bits) {
  uint32_t n = 2u << (bits - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[kDims - 1] >> 1;
  for (int i = kDims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != n; q <<= 1) {
    uint32_t p = q - 1;
    for (int i = kDims - 1; i >= 0; --i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        uint32_t t2 = (x[0] ^ x[i]) & p;
        x[0] ^= t2;
        x[i] ^= t2;
      }
    }
  }
}

}  // namespace

uint64_t HilbertEncode(uint32_t xi, uint32_t yi, uint32_t zi, int bits) {
  // Bits at or above `bits` never reach the index; masking them keeps them
  // out of the Gray code's suffix XOR.
  const uint32_t mask = (1u << bits) - 1;
  uint32_t x[kDims] = {xi & mask, yi & mask, zi & mask};
  AxesToTranspose(x, bits);
  // x[0] supplies the most significant bit of each triple, so it takes the
  // Morton code's highest lane.
  return MortonEncode(x[2], x[1], x[0]);
}

void HilbertDecode(uint64_t index, uint32_t* xo, uint32_t* yo, uint32_t* zo,
                   int bits) {
  uint32_t x[kDims] = {0, 0, 0};
  int pos = kDims * bits - 1;
  for (int bit = bits - 1; bit >= 0; --bit) {
    for (int i = 0; i < kDims; ++i) {
      x[i] |= static_cast<uint32_t>((index >> pos) & 1u) << bit;
      --pos;
    }
  }
  TransposeToAxes(x, bits);
  *xo = x[0];
  *yo = x[1];
  *zo = x[2];
}

HilbertMapper::HilbertMapper(const Aabb& domain, int bits)
    : domain_(domain), bits_(bits) {
  double cells = static_cast<double>((1ull << bits_) - 1);
  Vec3 extent = domain.Extent();
  for (int axis = 0; axis < 3; ++axis) {
    double e = extent[axis];
    scale_[axis] = e > 0.0 ? cells / e : 0.0;
  }
}

uint64_t HilbertMapper::Key(const Vec3& p) const {
  uint32_t grid[3];
  uint32_t max_cell = static_cast<uint32_t>((1ull << bits_) - 1);
  for (int axis = 0; axis < 3; ++axis) {
    double rel = (static_cast<double>(p[axis]) - domain_.min[axis]) * scale_[axis];
    rel = std::clamp(rel, 0.0, static_cast<double>(max_cell));
    grid[axis] = static_cast<uint32_t>(rel);
  }
  return HilbertEncode(grid[0], grid[1], grid[2], bits_);
}

}  // namespace geom
}  // namespace neurodb
