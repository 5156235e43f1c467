// NeuroDB — Page: the unit of simulated disk I/O.
//
// The demo's headline metric for FLAT is "disk pages retrieved" (paper
// Figure 3). We model a page as a fixed-capacity container of spatial
// elements; byte accounting uses a serialized layout of 32 bytes per
// element (8-byte id + 6 floats bounds) plus a 16-byte header, which is the
// on-disk footprint a straightforward binary format would have.

#ifndef NEURODB_STORAGE_PAGE_H_
#define NEURODB_STORAGE_PAGE_H_

#include <cstdint>
#include <vector>

#include "geom/aabb.h"
#include "geom/element.h"

namespace neurodb {
namespace storage {

/// Identifier of a page within a PageStore.
using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = static_cast<PageId>(-1);

/// Serialized size of one element in bytes (id + min/max corner floats).
inline constexpr size_t kElementBytes = 32;

/// Fixed per-page header budget in bytes.
inline constexpr size_t kPageHeaderBytes = 16;

/// A disk page holding spatial elements.
struct Page {
  PageId id = kInvalidPageId;
  std::vector<geom::SpatialElement> elements;

  /// Bounding box of all elements on the page.
  geom::Aabb Bounds() const {
    geom::Aabb box;
    for (const auto& e : elements) box.Extend(e.bounds);
    return box;
  }

  /// Serialized footprint in bytes.
  size_t SizeBytes() const {
    return kPageHeaderBytes + elements.size() * kElementBytes;
  }
};

/// How many elements fit into a page of `page_bytes` bytes.
inline size_t ElementsPerPage(size_t page_bytes) {
  if (page_bytes <= kPageHeaderBytes + kElementBytes) return 1;
  return (page_bytes - kPageHeaderBytes) / kElementBytes;
}

/// Cost model for the simulated disk (see common/sim_clock.h). Defaults
/// approximate a 2013-era enterprise HDD with a filesystem cache in front:
/// a random 8 KiB page read costs ~5 ms when cold.
struct DiskCostModel {
  /// Simulated microseconds charged for a demand page miss.
  uint64_t page_read_micros = 5000;
  /// Simulated microseconds for a buffer-pool hit (in-memory lookup).
  uint64_t page_hit_micros = 10;
};

/// Logical buffer-pool activity: demand hits and misses, and the capacity
/// evictions they caused. Unlike `IoStats` (physical bytes and fsyncs,
/// all-zero on in-memory stores), these count page-cache events that happen
/// identically whether pages live in RAM or on disk. A query carries one as
/// its tally (BufferPool::Fetch charges it), so the query's pool activity —
/// and its modeled time — stays exact however many readers share the pools.
struct PoolCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  PoolCounters& operator+=(const PoolCounters& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    return *this;
  }

  /// Component-wise delta (for before/after windows on a private pool).
  PoolCounters operator-(const PoolCounters& other) const {
    PoolCounters d;
    d.hits = hits - other.hits;
    d.misses = misses - other.misses;
    d.evictions = evictions - other.evictions;
    return d;
  }

  bool operator==(const PoolCounters& other) const = default;

  uint64_t accesses() const { return hits + misses; }

  /// Demand time under `cost`: what a SimClock charged by exactly these
  /// fetches reads.
  uint64_t ModeledMicros(const DiskCostModel& cost) const {
    return misses * cost.page_read_micros + hits * cost.page_hit_micros;
  }
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_PAGE_H_
