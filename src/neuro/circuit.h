// NeuroDB — Circuit: a population of placed neuron morphologies.
//
// The demo's model is "several thousand neurons" placed in a cortical
// volume (paper Section 1). A Circuit owns the morphologies and can flatten
// them into segment datasets — the element collections that FLAT indexes and
// TOUCH joins (axons vs dendrites for synapse discovery).

#ifndef NEURODB_NEURO_CIRCUIT_H_
#define NEURODB_NEURO_CIRCUIT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/aabb.h"
#include "geom/element.h"
#include "geom/segment.h"
#include "neuro/element_id.h"
#include "neuro/morphology.h"

namespace neurodb {
namespace neuro {

/// A flattened set of branch segments with their encoded element ids.
/// Kept as parallel arrays (column layout) for join/index performance.
struct SegmentDataset {
  std::vector<geom::Segment> segments;
  std::vector<geom::ElementId> ids;

  size_t size() const { return segments.size(); }
  bool empty() const { return segments.empty(); }

  void Add(const geom::Segment& s, geom::ElementId id) {
    segments.push_back(s);
    ids.push_back(id);
  }

  /// (id, bounds) view for index construction.
  geom::ElementVec Elements() const {
    geom::ElementVec out;
    out.reserve(segments.size());
    for (size_t i = 0; i < segments.size(); ++i) {
      out.emplace_back(ids[i], segments[i].Bounds());
    }
    return out;
  }

  geom::Aabb Bounds() const {
    geom::Aabb box;
    for (const auto& s : segments) box.Extend(s.Bounds());
    return box;
  }
};

/// Maps element ids back to their capsule geometry (SCOUT's skeleton
/// extraction). The segments are one column, in the order they were added;
/// an open-addressing table with linear probing maps each id to its row, so
/// a lookup costs about one cache miss for the slot and one for the row.
/// Every id value is a key, 0 and UINT64_MAX included.
class SegmentResolver {
 public:
  SegmentResolver() = default;

  /// Index a dataset; ids must be unique across all added datasets.
  void AddDataset(const SegmentDataset& dataset);

  /// The segment for `id`, or nullptr when no dataset holds it. The
  /// pointer stays valid until the next AddDataset.
  const geom::Segment* Lookup(geom::ElementId id) const {
    if (slots_.empty()) return nullptr;
    for (size_t at = Home(id);; at = (at + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[at];
      if (slot.row == kEmpty) return nullptr;
      if (slot.Id() == id) return &segments_[slot.row];
    }
  }

  /// Look up the segment for `id`.
  Result<geom::Segment> Find(geom::ElementId id) const {
    const geom::Segment* segment = Lookup(id);
    if (segment == nullptr) {
      return Status::NotFound("SegmentResolver: unknown element id");
    }
    return *segment;
  }

  size_t size() const { return segments_.size(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// One table slot: an id, split so that a slot takes 12 bytes, and its
  /// row in segments_ (kEmpty: a free slot).
  struct Slot {
    uint32_t id_lo = 0;
    uint32_t id_hi = 0;
    uint32_t row = kEmpty;

    geom::ElementId Id() const {
      return (static_cast<geom::ElementId>(id_hi) << 32) | id_lo;
    }
  };

  /// The id's first probe: Fibonacci hashing into the power-of-two table.
  size_t Home(geom::ElementId id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Put row `row` (holding `id`) into the table.
  void Place(geom::ElementId id, uint32_t row);

  std::vector<geom::Segment> segments_;
  /// At most two thirds full; empty until the first AddDataset.
  std::vector<Slot> slots_;
  /// 64 - log2(slots_.size()).
  int shift_ = 64;
};

/// A placed neuron.
struct Neuron {
  uint32_t gid = 0;
  Morphology morphology;
};

/// Which neurite classes to include when flattening a circuit.
enum class NeuriteFilter {
  kAll,
  kAxons,
  kDendrites,
};

/// A population of neurons.
class Circuit {
 public:
  Circuit() = default;

  /// Add a neuron; the assigned gid (its index) is returned.
  uint32_t AddNeuron(Morphology morphology);

  const std::vector<Neuron>& neurons() const { return neurons_; }
  const Neuron& neuron(uint32_t gid) const { return neurons_[gid]; }
  size_t NumNeurons() const { return neurons_.size(); }

  size_t TotalSegments() const;
  double TotalCableLength() const;
  geom::Aabb Bounds() const;

  /// Flatten branch segments into a dataset, optionally restricted by
  /// neurite type. Ids encode (gid, section, segment).
  SegmentDataset FlattenSegments(NeuriteFilter filter = NeuriteFilter::kAll) const;

  /// Validate every morphology.
  Status Validate() const;

 private:
  std::vector<Neuron> neurons_;
};

}  // namespace neuro
}  // namespace neurodb

#endif  // NEURODB_NEURO_CIRCUIT_H_
