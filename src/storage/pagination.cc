#include "storage/pagination.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geom/hilbert.h"

namespace neurodb {
namespace storage {

namespace {

geom::Aabb DomainOf(const geom::ElementVec& elements) {
  geom::Aabb box;
  for (const auto& e : elements) box.Extend(e.bounds);
  return box;
}

std::vector<uint32_t> HilbertOrder(const geom::ElementVec& elements,
                                   const geom::Aabb& domain) {
  geom::HilbertMapper mapper(domain);
  std::vector<std::pair<uint64_t, uint32_t>> keyed(elements.size());
  for (uint32_t i = 0; i < elements.size(); ++i) {
    keyed[i] = {mapper.Key(elements[i].bounds), i};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> order(elements.size());
  for (uint32_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return order;
}

}  // namespace

std::vector<uint32_t> StrOrder(const geom::ElementVec& elements,
                               size_t group_size) {
  const size_t n = elements.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n == 0 || group_size == 0) return order;

  const size_t num_groups = (n + group_size - 1) / group_size;
  // S slabs along x, each split into S runs along y, each tiled along z.
  const size_t s =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(
                              std::cbrt(static_cast<double>(num_groups)))));

  // Every sort runs over contiguous (center coordinate, index) pairs and
  // compares the coordinate alone. std::sort then sees the same comparison
  // outcomes at the same positions as a sort of bare indices that read each
  // center from `elements`, so the order is the same; but a comparison
  // never leaves the pair array, and each center coordinate is gathered
  // once per sort instead of twice per comparison.
  struct Keyed {
    float key;
    uint32_t index;
  };
  std::vector<Keyed> keyed(n);
  for (uint32_t i = 0; i < n; ++i) keyed[i].index = i;
  auto sort_by = [&](size_t begin, size_t end, int axis) {
    for (size_t i = begin; i < end; ++i) {
      keyed[i].key = elements[keyed[i].index].bounds.Center()[axis];
    }
    std::sort(keyed.begin() + begin, keyed.begin() + end,
              [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  };

  sort_by(0, n, 0);
  // Slab and run sizes must be multiples of group_size (Leutenegger et al.:
  // a slab holds s^2 tiles, a run s tiles). The consumer cuts groups every
  // group_size elements of the final order — if runs were not aligned, a
  // group could straddle a run boundary and span the whole z (and possibly
  // y) extent of the slab, destroying the tiling's low overlap.
  const size_t slab = s * s * group_size;  // elements per x-slab
  const size_t run = s * group_size;       // elements per y-run
  for (size_t x0 = 0; x0 < n; x0 += slab) {
    size_t x1 = std::min(n, x0 + slab);
    sort_by(x0, x1, 1);
    for (size_t y0 = x0; y0 < x1; y0 += run) {
      sort_by(y0, std::min(x1, y0 + run), 2);
    }
  }
  for (size_t i = 0; i < n; ++i) order[i] = keyed[i].index;
  return order;
}

Result<Layout> PaginateElements(const geom::ElementVec& elements,
                                PageStore* store, size_t elems_per_page,
                                PackOrder order, bool track_element_pages) {
  if (store == nullptr) {
    return Status::InvalidArgument("PaginateElements: null store");
  }
  if (elems_per_page == 0) {
    return Status::InvalidArgument("PaginateElements: elems_per_page == 0");
  }

  Layout layout;
  layout.domain = DomainOf(elements);
  if (elements.empty()) return layout;

  std::vector<uint32_t> perm;
  switch (order) {
    case PackOrder::kHilbert:
      perm = HilbertOrder(elements, layout.domain);
      break;
    case PackOrder::kStr:
      perm = StrOrder(elements, elems_per_page);
      break;
    case PackOrder::kInput:
      perm.resize(elements.size());
      std::iota(perm.begin(), perm.end(), 0u);
      break;
  }

  for (size_t at = 0; at < perm.size(); at += elems_per_page) {
    size_t end = std::min(perm.size(), at + elems_per_page);
    std::vector<geom::SpatialElement> run;
    run.reserve(end - at);
    geom::Aabb bounds;
    for (size_t i = at; i < end; ++i) {
      const auto& e = elements[perm[i]];
      run.push_back(e);
      bounds.Extend(e.bounds);
    }
    PageId id = store->Allocate();
    if (track_element_pages) {
      for (const auto& e : run) layout.element_pages.emplace_back(e.id, id);
    }
    NEURODB_RETURN_NOT_OK(store->Write(id, std::move(run)));
    layout.page_ids.push_back(id);
    layout.page_bounds.push_back(bounds);
  }
  return layout;
}

}  // namespace storage
}  // namespace neurodb
