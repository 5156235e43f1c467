#include "flat/flat_index.h"

#include <algorithm>
#include <bit>
#include <deque>

namespace neurodb {
namespace flat {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;

namespace {

/// Aabb::Intersects without a branch per comparison: the seed-tree walk
/// tests many boxes whose outcomes do not follow a pattern.
bool Overlaps(const Aabb& a, const Aabb& b) {
  return (a.min.x <= b.max.x) & (b.min.x <= a.max.x) & (a.min.y <= b.max.y) &
         (b.min.y <= a.max.y) & (a.min.z <= b.max.z) & (b.min.z <= a.max.z);
}

}  // namespace

Status FlatOptions::Validate() const {
  if (elems_per_page == 0) {
    return Status::InvalidArgument("FlatOptions: elems_per_page == 0");
  }
  return Status::OK();
}

Result<FlatIndex> FlatIndex::Build(const ElementVec& elements,
                                   storage::PageStore* store,
                                   FlatOptions options) {
  NEURODB_RETURN_NOT_OK(options.Validate());
  if (store == nullptr) {
    return Status::InvalidArgument("FlatIndex::Build: null store");
  }

  FlatIndex index;
  index.options_ = options;

  NEURODB_ASSIGN_OR_RETURN(
      storage::Layout layout,
      storage::PaginateElements(elements, store, options.elems_per_page,
                                options.pack));
  index.page_ids_ = std::move(layout.page_ids);
  index.page_bounds_ = std::move(layout.page_bounds);
  index.domain_ = layout.domain;

  // Seed tree over the page MBRs. Element ids are page indexes.
  NEURODB_ASSIGN_OR_RETURN(
      index.seed_tree_,
      rtree::RTree::BulkLoadPages(index.page_bounds_));

  // Neighborhood graph: pages whose MBRs intersect. Found via the seed
  // tree (P * log P instead of P^2 pair tests).
  index.neighbors_.resize(index.page_bounds_.size());
  for (uint32_t i = 0; i < index.page_bounds_.size(); ++i) {
    std::vector<ElementId> hits;
    index.seed_tree_.RangeQuery(index.page_bounds_[i], &hits);
    auto& list = index.neighbors_[i];
    list.reserve(hits.size() > 0 ? hits.size() - 1 : 0);
    for (ElementId hit : hits) {
      uint32_t j = static_cast<uint32_t>(hit);
      if (j != i) list.push_back(j);
    }
    std::sort(list.begin(), list.end());
  }
  return index;
}

Status FlatIndex::CrawlFrom(uint32_t start, const Aabb& box,
                            storage::BufferPool* pool,
                            geom::ResultVisitor& visitor,
                            std::vector<char>* visited,
                            std::vector<uint32_t>* visit_order,
                            FlatQueryStats* stats) const {
  std::deque<uint32_t> queue;
  queue.push_back(start);
  (*visited)[start] = 1;

  while (!queue.empty()) {
    uint32_t page_index = queue.front();
    queue.pop_front();

    auto page = pool->Fetch(page_ids_[page_index],
                            stats != nullptr ? &stats->pool : nullptr);
    if (!page.ok()) return page.status();
    if (stats != nullptr) {
      ++stats->data_pages_read;
      ++stats->crawl_steps;
    }
    if (visit_order != nullptr) visit_order->push_back(page_index);

    for (const auto& e : (*page)->elements) {
      if (stats != nullptr) ++stats->elements_scanned;
      if (e.bounds.Intersects(box)) {
        visitor.Visit(e.id, e.bounds);
        if (stats != nullptr) ++stats->results;
      }
    }
    // Recursively visit neighboring pages that overlap the range. Neighbors
    // of retrieved pages that are not in the range are not visited.
    for (uint32_t n : neighbors_[page_index]) {
      if (!(*visited)[n] && page_bounds_[n].Intersects(box)) {
        (*visited)[n] = 1;
        queue.push_back(n);
      }
    }
  }
  return Status::OK();
}

Status FlatIndex::RangeQueryTraced(const Aabb& box, storage::BufferPool* pool,
                                   geom::ResultVisitor& visitor,
                                   std::vector<uint32_t>* page_visit_order,
                                   FlatQueryStats* stats) const {
  if (pool == nullptr) {
    return Status::InvalidArgument("FlatIndex::RangeQuery: null pool");
  }
  if (page_ids_.empty()) return Status::OK();

  // Phase 1: seed — find one page intersecting the range.
  rtree::QueryStats seed_stats;
  SpatialElement seed;
  bool found = seed_tree_.FindAny(box, &seed, &seed_stats);
  if (stats != nullptr) stats->seed_nodes_visited = seed_stats.nodes_visited;

  std::vector<char> visited(page_ids_.size(), 0);
  if (found) {
    // Phase 2: crawl through the neighborhood information.
    NEURODB_RETURN_NOT_OK(CrawlFrom(static_cast<uint32_t>(seed.id), box, pool,
                                    visitor, &visited, page_visit_order,
                                    stats));
  }

  // Phase 3 (optional): rescue pass — complete the result on data whose
  // in-range page graph is disconnected. Memory-only seed-tree scan; any
  // unvisited page found starts another crawl.
  if (options_.rescue) {
    rtree::QueryStats rescue_stats;
    std::vector<ElementId> in_range;
    seed_tree_.RangeQuery(box, &in_range, &rescue_stats);
    if (stats != nullptr) {
      stats->rescue_nodes_visited = rescue_stats.nodes_visited;
    }
    for (ElementId hit : in_range) {
      uint32_t page_index = static_cast<uint32_t>(hit);
      if (!visited[page_index]) {
        if (stats != nullptr) ++stats->extra_seeds;
        NEURODB_RETURN_NOT_OK(CrawlFrom(page_index, box, pool, visitor,
                                        &visited, page_visit_order, stats));
      }
    }
  }
  return Status::OK();
}

Status FlatIndex::RangeQueryTraced(const Aabb& box, storage::BufferPool* pool,
                                   std::vector<ElementId>* out,
                                   std::vector<uint32_t>* page_visit_order,
                                   FlatQueryStats* stats) const {
  if (out == nullptr) {
    return Status::InvalidArgument("FlatIndex::RangeQuery: null output");
  }
  geom::VectorVisitor visitor(out);
  return RangeQueryTraced(box, pool, visitor, page_visit_order, stats);
}

Status FlatIndex::RangeQuery(const Aabb& box, storage::BufferPool* pool,
                             geom::ResultVisitor& visitor,
                             FlatQueryStats* stats) const {
  return RangeQueryTraced(box, pool, visitor, nullptr, stats);
}

Status FlatIndex::RangeQuery(const Aabb& box, storage::BufferPool* pool,
                             std::vector<ElementId>* out,
                             FlatQueryStats* stats) const {
  return RangeQueryTraced(box, pool, out, nullptr, stats);
}

Status FlatIndex::Knn(const geom::Vec3& p, size_t k, storage::BufferPool* pool,
                      std::vector<geom::KnnHit>* hits,
                      FlatQueryStats* stats) const {
  if (pool == nullptr) {
    return Status::InvalidArgument("FlatIndex::Knn: null pool");
  }
  if (hits == nullptr) {
    return Status::InvalidArgument("FlatIndex::Knn: null output");
  }
  if (!geom::IsFinitePoint(p)) {
    return Status::InvalidArgument("FlatIndex::Knn: non-finite query point");
  }
  rtree::QueryStats seed_stats;
  NEURODB_RETURN_NOT_OK(seed_tree_.BrowseKnn(
      p, k,
      [&](const SpatialElement& entry, geom::KnnAccumulator* acc) -> Status {
        auto page = pool->Fetch(page_ids_[entry.id],
                                stats != nullptr ? &stats->pool : nullptr);
        if (!page.ok()) return page.status();
        if (stats != nullptr) {
          ++stats->data_pages_read;
          ++stats->crawl_steps;
        }
        for (const auto& e : (*page)->elements) {
          if (stats != nullptr) ++stats->elements_scanned;
          acc->Offer(e.id, geom::KnnDistance(p, e.bounds));
        }
        return Status::OK();
      },
      hits, stats != nullptr ? &seed_stats : nullptr));
  if (stats != nullptr) {
    ++stats->knn_rings;
    stats->seed_nodes_visited += seed_stats.nodes_visited;
    stats->results = hits->size();
  }
  return Status::OK();
}

std::vector<uint32_t> FlatIndex::PagesInRange(const Aabb& box) const {
  std::vector<std::vector<uint32_t>> pages;
  PagesInRanges(std::span<const Aabb>(&box, 1), &pages);
  return std::move(pages[0]);
}

void FlatIndex::PagesInRanges(std::span<const Aabb> boxes,
                              std::vector<std::vector<uint32_t>>* pages) const {
  pages->resize(boxes.size());
  for (std::vector<uint32_t>& list : *pages) list.clear();
  if (seed_tree_.root() == -1) return;

  // A node reached by the boxes in `mask` (bit b: boxes[first + b]) passes
  // on to each child the boxes that intersect it; a leaf entry records its
  // page with the boxes that intersect its MBR.
  struct Visit {
    int32_t node;
    uint64_t mask;
  };
  struct Hit {
    uint32_t page;
    uint64_t mask;
  };
  std::vector<Visit> stack;
  std::vector<Hit> hits;
  for (size_t first = 0; first < boxes.size(); first += 64) {
    const std::span<const Aabb> group =
        boxes.subspan(first, std::min<size_t>(64, boxes.size() - first));
    // The boxes of `mask` that intersect `bounds`, after one test against
    // `reach`, a box around all their corners: whatever intersects one of
    // them (even an inverted one) intersects it.
    auto overlap = [&group](const Aabb& bounds, uint64_t mask,
                            const Aabb& reach) {
      if (!Overlaps(bounds, reach)) return uint64_t{0};
      uint64_t out = 0;
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        const int b = std::countr_zero(m);
        out |= uint64_t{Overlaps(bounds, group[b])} << b;
      }
      return out;
    };
    const uint64_t everyone =
        group.size() == 64 ? ~uint64_t{0} : (uint64_t{1} << group.size()) - 1;
    stack.assign(1, Visit{seed_tree_.root(), everyone});
    hits.clear();
    while (!stack.empty()) {
      const Visit visit = stack.back();
      stack.pop_back();
      const rtree::RTree::Node& node = seed_tree_.node(visit.node);
      Aabb reach;
      for (uint64_t m = visit.mask; m != 0; m &= m - 1) {
        const Aabb& box = group[std::countr_zero(m)];
        reach.Extend(box.min);
        reach.Extend(box.max);
      }
      if (node.IsLeaf()) {
        for (const SpatialElement& e : node.entries) {
          const uint64_t mask = overlap(e.bounds, visit.mask, reach);
          if (mask != 0) hits.push_back(Hit{static_cast<uint32_t>(e.id), mask});
        }
      } else {
        for (int32_t child : node.children) {
          const uint64_t mask =
              overlap(seed_tree_.node(child).bounds, visit.mask, reach);
          if (mask != 0) stack.push_back(Visit{child, mask});
        }
      }
    }
    // Each page appears once; in page order, it joins every box's list.
    std::sort(hits.begin(), hits.end(),
              [](const Hit& l, const Hit& r) { return l.page < r.page; });
    for (const Hit& hit : hits) {
      for (uint64_t m = hit.mask; m != 0; m &= m - 1) {
        (*pages)[first + std::countr_zero(m)].push_back(hit.page);
      }
    }
  }
}

size_t FlatIndex::MetadataBytes() const {
  size_t bytes = seed_tree_.MemoryBytes();
  bytes += page_ids_.capacity() * sizeof(storage::PageId);
  bytes += page_bounds_.capacity() * sizeof(Aabb);
  bytes += neighbors_.capacity() * sizeof(std::vector<uint32_t>);
  for (const auto& list : neighbors_) {
    bytes += list.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

Status FlatIndex::CheckInvariants() const {
  if (page_ids_.size() != page_bounds_.size() ||
      page_ids_.size() != neighbors_.size()) {
    return Status::Corruption("FlatIndex: parallel array size mismatch");
  }
  if (seed_tree_.size() != page_ids_.size()) {
    return Status::Corruption("FlatIndex: seed tree entry count mismatch");
  }
  NEURODB_RETURN_NOT_OK(seed_tree_.CheckInvariants());

  for (uint32_t i = 0; i < neighbors_.size(); ++i) {
    for (uint32_t j : neighbors_[i]) {
      if (j >= neighbors_.size()) {
        return Status::Corruption("FlatIndex: neighbor index out of range");
      }
      if (j == i) return Status::Corruption("FlatIndex: self-loop neighbor");
      if (!page_bounds_[i].Intersects(page_bounds_[j])) {
        return Status::Corruption("FlatIndex: neighbor MBRs do not intersect");
      }
      // Symmetry.
      const auto& back = neighbors_[j];
      if (!std::binary_search(back.begin(), back.end(), i)) {
        return Status::Corruption("FlatIndex: asymmetric neighbor link");
      }
    }
  }
  return Status::OK();
}

}  // namespace flat
}  // namespace neurodb
