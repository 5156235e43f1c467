#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "geom/hilbert.h"
#include "storage/pagination.h"

namespace neurodb {
namespace rtree {

using geom::Aabb;
using geom::ElementId;
using geom::ElementVec;
using geom::SpatialElement;
using geom::Vec3;

Status RTreeOptions::Validate() const {
  if (max_entries < 4) {
    return Status::InvalidArgument("RTreeOptions: max_entries must be >= 4");
  }
  if (min_entries < 1 || min_entries > max_entries / 2) {
    return Status::InvalidArgument(
        "RTreeOptions: min_entries must be in [1, max_entries/2]");
  }
  if (leaf_capacity != 0 &&
      (leaf_capacity < 2 || min_entries > leaf_capacity / 2)) {
    return Status::InvalidArgument(
        "RTreeOptions: leaf_capacity must be 0 or >= max(2, 2*min_entries)");
  }
  if (!(fill_factor > 0.0) || fill_factor > 1.0) {
    return Status::InvalidArgument(
        "RTreeOptions: fill_factor must be in (0, 1]");
  }
  if (reinsert_factor < 0.0 || reinsert_factor > 0.5) {
    return Status::InvalidArgument(
        "RTreeOptions: reinsert_factor must be in [0, 0.5]");
  }
  return Status::OK();
}

namespace {

size_t PackedCapacity(size_t capacity, double fill_factor, size_t floor) {
  size_t target = static_cast<size_t>(
      std::llround(fill_factor * static_cast<double>(capacity)));
  target = std::max<size_t>(target, std::max<size_t>(floor, 1));
  return std::min(target, capacity);
}

}  // namespace

size_t RTreeOptions::PackedLeafCapacity() const {
  return PackedCapacity(LeafCapacity(), fill_factor, min_entries);
}

size_t RTreeOptions::PackedFanout() const {
  return PackedCapacity(max_entries, fill_factor, min_entries);
}

RTree::RTree(RTreeOptions options) : options_(options) {}

int32_t RTree::NewNode(int level) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().level = level;
  return id;
}

void RTree::RecomputeBounds(int32_t node_id) {
  Node& n = nodes_[node_id];
  Aabb box;
  if (n.IsLeaf()) {
    for (const auto& e : n.entries) box.Extend(e.bounds);
  } else {
    for (int32_t c : n.children) box.Extend(nodes_[c].bounds);
  }
  n.bounds = box;
}

// ---------------------------------------------------------------------------
// Bulk loading
// ---------------------------------------------------------------------------

RTree RTree::PackLevels(std::vector<Node> leaves, RTreeOptions options,
                        size_t element_count) {
  RTree tree(options);
  tree.nodes_ = std::move(leaves);
  tree.size_ = element_count;

  if (tree.nodes_.empty()) {
    tree.root_ = -1;
    return tree;
  }

  std::vector<int32_t> current(tree.nodes_.size());
  std::iota(current.begin(), current.end(), 0);

  const size_t fanout = options.PackedFanout();
  int level = 0;
  while (current.size() > 1) {
    ++level;
    // Order this level's nodes with STR over their bounding boxes so parent
    // groups are spatially coherent.
    ElementVec boxes;
    boxes.reserve(current.size());
    for (int32_t id : current) {
      boxes.emplace_back(static_cast<ElementId>(id), tree.nodes_[id].bounds);
    }
    std::vector<uint32_t> order = storage::StrOrder(boxes, fanout);

    std::vector<int32_t> parents;
    for (size_t at = 0; at < order.size(); at += fanout) {
      size_t end = std::min(order.size(), at + fanout);
      int32_t pid = tree.NewNode(level);
      for (size_t i = at; i < end; ++i) {
        int32_t child = static_cast<int32_t>(boxes[order[i]].id);
        tree.nodes_[pid].children.push_back(child);
        tree.nodes_[child].parent = pid;
        tree.nodes_[pid].bounds.Extend(tree.nodes_[child].bounds);
      }
      parents.push_back(pid);
    }
    current = std::move(parents);
  }
  tree.root_ = current[0];
  tree.nodes_[tree.root_].parent = -1;
  return tree;
}

namespace {

std::vector<RTree::Node> PackLeaves(const ElementVec& elements,
                                    const std::vector<uint32_t>& order,
                                    size_t leaf_capacity) {
  std::vector<RTree::Node> leaves;
  leaves.reserve(order.size() / leaf_capacity + 1);
  for (size_t at = 0; at < order.size(); at += leaf_capacity) {
    size_t end = std::min(order.size(), at + leaf_capacity);
    RTree::Node leaf;
    leaf.level = 0;
    leaf.entries.reserve(end - at);
    for (size_t i = at; i < end; ++i) {
      leaf.entries.push_back(elements[order[i]]);
      leaf.bounds.Extend(elements[order[i]].bounds);
    }
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

}  // namespace

Result<RTree> RTree::BulkLoadStr(const ElementVec& elements,
                                 RTreeOptions options) {
  NEURODB_RETURN_NOT_OK(options.Validate());
  const size_t run = options.PackedLeafCapacity();
  std::vector<uint32_t> order = storage::StrOrder(elements, run);
  return PackLevels(PackLeaves(elements, order, run), options,
                    elements.size());
}

Result<RTree> RTree::BulkLoadHilbert(const ElementVec& elements,
                                     RTreeOptions options) {
  NEURODB_RETURN_NOT_OK(options.Validate());
  Aabb domain;
  for (const auto& e : elements) domain.Extend(e.bounds);
  std::vector<std::pair<uint64_t, uint32_t>> keyed(elements.size());
  if (!elements.empty()) {
    geom::HilbertMapper mapper(domain);
    for (uint32_t i = 0; i < elements.size(); ++i) {
      keyed[i] = {mapper.Key(elements[i].bounds), i};
    }
    std::sort(keyed.begin(), keyed.end());
  }
  std::vector<uint32_t> order(elements.size());
  for (uint32_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return PackLevels(
      PackLeaves(elements, order, options.PackedLeafCapacity()), options,
      elements.size());
}

Result<RTree> RTree::BulkLoadPages(const std::vector<Aabb>& page_bounds,
                                   RTreeOptions options) {
  ElementVec entries;
  entries.reserve(page_bounds.size());
  for (uint32_t i = 0; i < page_bounds.size(); ++i) {
    entries.emplace_back(static_cast<ElementId>(i), page_bounds[i]);
  }
  return BulkLoadStr(entries, options);
}

Result<RTree> RTree::Build(const ElementVec& elements, RTreeOptions options) {
  switch (options.build) {
    case BuildAlgorithm::kStrBulk:
      return BulkLoadStr(elements, options);
    case BuildAlgorithm::kHilbertBulk:
      return BulkLoadHilbert(elements, options);
    case BuildAlgorithm::kDynamicInsert: {
      NEURODB_RETURN_NOT_OK(options.Validate());
      RTree tree(options);
      for (const auto& e : elements) {
        NEURODB_RETURN_NOT_OK(tree.Insert(e));
      }
      return tree;
    }
  }
  return Status::InvalidArgument("RTreeOptions: unknown build algorithm");
}

// ---------------------------------------------------------------------------
// Dynamic insertion
// ---------------------------------------------------------------------------

int32_t RTree::ChooseSubtree(const Aabb& box, int target_level) const {
  int32_t id = root_;
  while (nodes_[id].level > target_level) {
    const Node& n = nodes_[id];
    const bool leaf_children = nodes_[n.children.front()].IsLeaf();

    int32_t best = n.children.front();
    double best_primary = std::numeric_limits<double>::max();
    double best_secondary = std::numeric_limits<double>::max();
    double best_volume = std::numeric_limits<double>::max();

    for (int32_t c : n.children) {
      const Aabb& cb = nodes_[c].bounds;
      double enlargement = geom::Enlargement(cb, box);
      double volume = cb.Volume();
      double primary;
      double secondary;
      if (options_.split == SplitAlgorithm::kRStar && leaf_children) {
        // R* ChooseSubtree at the level above leaves: minimise overlap
        // enlargement, then volume enlargement.
        Aabb grown = Aabb::Union(cb, box);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (int32_t o : n.children) {
          if (o == c) continue;
          overlap_before += geom::OverlapVolume(cb, nodes_[o].bounds);
          overlap_after += geom::OverlapVolume(grown, nodes_[o].bounds);
        }
        primary = overlap_after - overlap_before;
        secondary = enlargement;
      } else {
        primary = enlargement;
        secondary = volume;
      }
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           volume < best_volume)) {
        best = c;
        best_primary = primary;
        best_secondary = secondary;
        best_volume = volume;
      }
    }
    id = best;
  }
  return id;
}

namespace {

/// A unit being distributed during a node split: the bounding box plus
/// either a child node id (internal split) or an entry index (leaf split).
struct SplitItem {
  Aabb box;
  int32_t child = -1;
  uint32_t entry = 0;
};

/// Guttman quadratic split: returns item indices of the second group.
std::vector<uint32_t> QuadraticPartition(const std::vector<SplitItem>& items,
                                         size_t min_entries) {
  const size_t n = items.size();
  // PickSeeds: the pair wasting the most volume.
  uint32_t seed1 = 0;
  uint32_t seed2 = 1;
  double worst = -std::numeric_limits<double>::max();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      double waste = Aabb::Union(items[i].box, items[j].box).Volume() -
                     items[i].box.Volume() - items[j].box.Volume();
      if (waste > worst) {
        worst = waste;
        seed1 = i;
        seed2 = j;
      }
    }
  }

  std::vector<int> group(n, -1);
  group[seed1] = 0;
  group[seed2] = 1;
  Aabb bb[2] = {items[seed1].box, items[seed2].box};
  size_t count[2] = {1, 1};
  size_t remaining = n - 2;

  while (remaining > 0) {
    // If one group must absorb everything left to reach min fill, do so.
    for (int g = 0; g < 2; ++g) {
      if (count[g] + remaining == min_entries ||
          count[g] + remaining < min_entries) {
        for (uint32_t i = 0; i < n; ++i) {
          if (group[i] == -1) {
            group[i] = g;
            bb[g].Extend(items[i].box);
            ++count[g];
          }
        }
        remaining = 0;
        break;
      }
    }
    if (remaining == 0) break;

    // PickNext: the item with the largest preference difference.
    uint32_t next = 0;
    double best_diff = -1.0;
    double d[2] = {0.0, 0.0};
    for (uint32_t i = 0; i < n; ++i) {
      if (group[i] != -1) continue;
      double d0 = geom::Enlargement(bb[0], items[i].box);
      double d1 = geom::Enlargement(bb[1], items[i].box);
      double diff = std::fabs(d0 - d1);
      if (diff > best_diff) {
        best_diff = diff;
        next = i;
        d[0] = d0;
        d[1] = d1;
      }
    }
    int g;
    if (d[0] != d[1]) {
      g = d[0] < d[1] ? 0 : 1;
    } else if (bb[0].Volume() != bb[1].Volume()) {
      g = bb[0].Volume() < bb[1].Volume() ? 0 : 1;
    } else {
      g = count[0] <= count[1] ? 0 : 1;
    }
    group[next] = g;
    bb[g].Extend(items[next].box);
    ++count[g];
    --remaining;
  }

  std::vector<uint32_t> second;
  for (uint32_t i = 0; i < n; ++i) {
    if (group[i] == 1) second.push_back(i);
  }
  return second;
}

/// R* split: choose axis by minimum margin sum over all distributions of
/// both sortings (by lower and by upper coordinate), then the distribution
/// with minimum overlap (ties: minimum total volume).
std::vector<uint32_t> RStarPartition(const std::vector<SplitItem>& items,
                                     size_t min_entries) {
  const size_t n = items.size();
  const size_t max_k = n - min_entries;  // split positions: [min_entries, max_k]

  std::vector<uint32_t> best_split;
  double best_overlap = std::numeric_limits<double>::max();
  double best_volume = std::numeric_limits<double>::max();
  int best_axis = -1;
  double best_margin = std::numeric_limits<double>::max();

  // First pass: pick the axis with the smallest margin sum.
  std::vector<uint32_t> order(n);
  for (int axis = 0; axis < 3; ++axis) {
    for (int by_upper = 0; by_upper < 2; ++by_upper) {
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        float ka = by_upper ? items[a].box.max[axis] : items[a].box.min[axis];
        float kb = by_upper ? items[b].box.max[axis] : items[b].box.min[axis];
        return ka < kb;
      });
      // Prefix / suffix bounding boxes.
      std::vector<Aabb> prefix(n), suffix(n);
      Aabb acc;
      for (size_t i = 0; i < n; ++i) {
        acc.Extend(items[order[i]].box);
        prefix[i] = acc;
      }
      acc = Aabb();
      for (size_t i = n; i-- > 0;) {
        acc.Extend(items[order[i]].box);
        suffix[i] = acc;
      }
      double margin_sum = 0.0;
      for (size_t k = min_entries; k <= max_k; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis = axis * 2 + by_upper;
      }
    }
  }

  // Second pass: on the chosen axis/sort, pick the best distribution.
  {
    int axis = best_axis / 2;
    int by_upper = best_axis % 2;
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      float ka = by_upper ? items[a].box.max[axis] : items[a].box.min[axis];
      float kb = by_upper ? items[b].box.max[axis] : items[b].box.min[axis];
      return ka < kb;
    });
    std::vector<Aabb> prefix(n), suffix(n);
    Aabb acc;
    for (size_t i = 0; i < n; ++i) {
      acc.Extend(items[order[i]].box);
      prefix[i] = acc;
    }
    acc = Aabb();
    for (size_t i = n; i-- > 0;) {
      acc.Extend(items[order[i]].box);
      suffix[i] = acc;
    }
    for (size_t k = min_entries; k <= max_k; ++k) {
      double overlap = geom::OverlapVolume(prefix[k - 1], suffix[k]);
      double volume = prefix[k - 1].Volume() + suffix[k].Volume();
      if (overlap < best_overlap ||
          (overlap == best_overlap && volume < best_volume)) {
        best_overlap = overlap;
        best_volume = volume;
        best_split.assign(order.begin() + k, order.end());
      }
    }
  }
  return best_split;
}

}  // namespace

void RTree::SplitNode(int32_t node_id) {
  // Gather the items being distributed.
  std::vector<SplitItem> items;
  {
    Node& n = nodes_[node_id];
    if (n.IsLeaf()) {
      items.resize(n.entries.size());
      for (uint32_t i = 0; i < n.entries.size(); ++i) {
        items[i].box = n.entries[i].bounds;
        items[i].entry = i;
      }
    } else {
      items.resize(n.children.size());
      for (uint32_t i = 0; i < n.children.size(); ++i) {
        items[i].box = nodes_[n.children[i]].bounds;
        items[i].child = n.children[i];
      }
    }
  }

  std::vector<uint32_t> second_idx =
      options_.split == SplitAlgorithm::kQuadratic
          ? QuadraticPartition(items, options_.min_entries)
          : RStarPartition(items, options_.min_entries);

  std::vector<bool> in_second(items.size(), false);
  for (uint32_t i : second_idx) in_second[i] = true;

  const int level = nodes_[node_id].level;
  int32_t sibling = NewNode(level);  // may reallocate nodes_

  // Redistribute.
  if (nodes_[node_id].IsLeaf()) {
    std::vector<SpatialElement> keep;
    for (uint32_t i = 0; i < items.size(); ++i) {
      const SpatialElement& e = nodes_[node_id].entries[items[i].entry];
      if (in_second[i]) {
        nodes_[sibling].entries.push_back(e);
      } else {
        keep.push_back(e);
      }
    }
    nodes_[node_id].entries = std::move(keep);
  } else {
    std::vector<int32_t> keep;
    for (uint32_t i = 0; i < items.size(); ++i) {
      int32_t c = items[i].child;
      if (in_second[i]) {
        nodes_[sibling].children.push_back(c);
        nodes_[c].parent = sibling;
      } else {
        keep.push_back(c);
      }
    }
    nodes_[node_id].children = std::move(keep);
  }
  RecomputeBounds(node_id);
  RecomputeBounds(sibling);

  int32_t parent = nodes_[node_id].parent;
  if (parent == -1) {
    // Root split: grow the tree.
    int32_t new_root = NewNode(level + 1);
    nodes_[new_root].children = {node_id, sibling};
    nodes_[node_id].parent = new_root;
    nodes_[sibling].parent = new_root;
    RecomputeBounds(new_root);
    root_ = new_root;
    return;
  }

  nodes_[sibling].parent = parent;
  nodes_[parent].children.push_back(sibling);
  RecomputeBounds(parent);
  if (nodes_[parent].children.size() > options_.max_entries) {
    HandleOverflow(parent);
  } else {
    AdjustUpward(parent);
  }
}

void RTree::HandleOverflow(int32_t node_id) {
  const int level = nodes_[node_id].level;
  const bool may_reinsert =
      options_.split == SplitAlgorithm::kRStar &&
      options_.reinsert_factor > 0.0 && node_id != root_ &&
      (static_cast<size_t>(level) >= reinserted_levels_.size() ||
       !reinserted_levels_[level]);
  if (!may_reinsert) {
    SplitNode(node_id);
    return;
  }
  if (reinserted_levels_.size() <= static_cast<size_t>(level)) {
    reinserted_levels_.resize(level + 1, 0);
  }
  reinserted_levels_[level] = 1;
  ForcedReinsert(node_id);
}

void RTree::ForcedReinsert(int32_t node_id) {
  const bool leaf = nodes_[node_id].IsLeaf();
  const int level = nodes_[node_id].level;
  const size_t count = leaf ? nodes_[node_id].entries.size()
                            : nodes_[node_id].children.size();
  size_t p = static_cast<size_t>(
      std::llround(options_.reinsert_factor * static_cast<double>(count)));
  p = std::max<size_t>(p, 1);
  p = std::min(p, count - options_.min_entries);

  // Rank entries by squared distance of their center from the node center;
  // the p farthest are evicted, then re-inserted closest-first ("close
  // reinsert"). Index tiebreak keeps the pass deterministic.
  const Vec3 center = nodes_[node_id].bounds.Center();
  std::vector<std::pair<double, uint32_t>> ranked(count);
  for (uint32_t i = 0; i < count; ++i) {
    const Aabb& box = leaf ? nodes_[node_id].entries[i].bounds
                           : nodes_[nodes_[node_id].children[i]].bounds;
    ranked[i] = {(box.Center() - center).SquaredNorm(), i};
  }
  std::sort(ranked.begin(), ranked.end());
  // ranked[count-p .. count) are the evicted tail, ascending by distance.

  std::vector<bool> evict(count, false);
  for (size_t i = count - p; i < count; ++i) evict[ranked[i].second] = true;

  if (leaf) {
    std::vector<SpatialElement> removed;
    removed.reserve(p);
    for (size_t i = count - p; i < count; ++i) {
      removed.push_back(nodes_[node_id].entries[ranked[i].second]);
    }
    std::vector<SpatialElement> keep;
    keep.reserve(count - p);
    for (uint32_t i = 0; i < count; ++i) {
      if (!evict[i]) keep.push_back(nodes_[node_id].entries[i]);
    }
    nodes_[node_id].entries = std::move(keep);
    RecomputeBounds(node_id);
    AdjustUpward(node_id);
    for (const auto& e : removed) {
      int32_t target = ChooseSubtree(e.bounds, 0);
      nodes_[target].entries.push_back(e);
      nodes_[target].bounds.Extend(e.bounds);
      if (nodes_[target].entries.size() > options_.LeafCapacity()) {
        HandleOverflow(target);
      } else {
        AdjustUpward(target);
      }
    }
  } else {
    std::vector<int32_t> removed;
    removed.reserve(p);
    for (size_t i = count - p; i < count; ++i) {
      removed.push_back(nodes_[node_id].children[ranked[i].second]);
    }
    std::vector<int32_t> keep;
    keep.reserve(count - p);
    for (uint32_t i = 0; i < count; ++i) {
      if (!evict[i]) keep.push_back(nodes_[node_id].children[i]);
    }
    nodes_[node_id].children = std::move(keep);
    RecomputeBounds(node_id);
    AdjustUpward(node_id);
    for (int32_t child : removed) {
      // A child of level `level - 1` re-attaches under a node of `level`.
      int32_t target = ChooseSubtree(nodes_[child].bounds, level);
      nodes_[target].children.push_back(child);
      nodes_[child].parent = target;
      nodes_[target].bounds.Extend(nodes_[child].bounds);
      if (nodes_[target].children.size() > options_.max_entries) {
        HandleOverflow(target);
      } else {
        AdjustUpward(target);
      }
    }
  }
}

void RTree::AdjustUpward(int32_t node_id) {
  int32_t id = nodes_[node_id].parent;
  while (id != -1) {
    RecomputeBounds(id);
    id = nodes_[id].parent;
  }
}

Status RTree::Insert(const SpatialElement& element) {
  NEURODB_RETURN_NOT_OK(options_.Validate());
  if (element.bounds.IsEmpty()) {
    return Status::InvalidArgument("RTree::Insert: empty bounding box");
  }
  if (root_ == -1) {
    root_ = NewNode(0);
  }
  int32_t leaf = ChooseSubtree(element.bounds, 0);
  nodes_[leaf].entries.push_back(element);
  nodes_[leaf].bounds.Extend(element.bounds);
  ++size_;
  reinserted_levels_.clear();
  if (nodes_[leaf].entries.size() > options_.LeafCapacity()) {
    HandleOverflow(leaf);
  } else {
    AdjustUpward(leaf);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void RTree::RangeQuery(const Aabb& box, std::vector<ElementId>* out,
                       QueryStats* stats) const {
  if (root_ == -1) return;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (stats != nullptr) stats->CountNode(n.level);
    if (n.IsLeaf()) {
      for (const auto& e : n.entries) {
        if (stats != nullptr) ++stats->entries_tested;
        if (e.bounds.Intersects(box)) {
          out->push_back(e.id);
          if (stats != nullptr) ++stats->results;
        }
      }
    } else {
      for (int32_t c : n.children) {
        if (stats != nullptr) ++stats->entries_tested;
        if (nodes_[c].bounds.Intersects(box)) stack.push_back(c);
      }
    }
  }
}

void RTree::RangeQueryElements(const Aabb& box, ElementVec* out,
                               QueryStats* stats) const {
  if (root_ == -1) return;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (stats != nullptr) stats->CountNode(n.level);
    if (n.IsLeaf()) {
      for (const auto& e : n.entries) {
        if (stats != nullptr) ++stats->entries_tested;
        if (e.bounds.Intersects(box)) {
          out->push_back(e);
          if (stats != nullptr) ++stats->results;
        }
      }
    } else {
      for (int32_t c : n.children) {
        if (stats != nullptr) ++stats->entries_tested;
        if (nodes_[c].bounds.Intersects(box)) stack.push_back(c);
      }
    }
  }
}

namespace {
bool FindAnyRec(const RTree& tree, int32_t id, const Aabb& box,
                SpatialElement* out, QueryStats* stats) {
  const RTree::Node& n = tree.node(id);
  if (stats != nullptr) stats->CountNode(n.level);
  if (n.IsLeaf()) {
    for (const auto& e : n.entries) {
      if (stats != nullptr) ++stats->entries_tested;
      if (e.bounds.Intersects(box)) {
        *out = e;
        if (stats != nullptr) ++stats->results;
        return true;
      }
    }
    return false;
  }
  // Visit intersecting children nearest the query center first: on dense
  // data the first descent succeeds, so the cost is the tree height.
  Vec3 qc = box.Center();
  std::vector<std::pair<double, int32_t>> candidates;
  for (int32_t c : n.children) {
    if (stats != nullptr) ++stats->entries_tested;
    const Aabb& cb = tree.node(c).bounds;
    if (cb.Intersects(box)) {
      candidates.emplace_back(cb.SquaredDistanceTo(qc), c);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [dist, c] : candidates) {
    if (FindAnyRec(tree, c, box, out, stats)) return true;
  }
  return false;
}
}  // namespace

bool RTree::FindAny(const Aabb& box, SpatialElement* out,
                    QueryStats* stats) const {
  if (root_ == -1) return false;
  return FindAnyRec(*this, root_, box, out, stats);
}

Status RTree::BrowseKnn(const Vec3& p, size_t k, const PageScan& scan,
                        std::vector<geom::KnnHit>* hits,
                        QueryStats* stats) const {
  hits->clear();
  if (root_ == -1 || k == 0) return Status::OK();

  // A queue item is a node (entry == nullptr) or a leaf entry.
  struct Item {
    double key;
    int32_t node;
    const SpatialElement* entry;
    bool operator>(const Item& o) const { return key > o.key; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  geom::KnnAccumulator acc(k);
  // A box's distance is at most that of anything inside it, so an item
  // keyed beyond the current k-th distance can never be read.
  auto push = [&](const Aabb& bounds, int32_t node,
                  const SpatialElement* entry) {
    double key = geom::KnnDistance(p, bounds);
    if (!(key > acc.WorstDistance())) queue.push({key, node, entry});
  };
  push(nodes_[root_].bounds, root_, nullptr);

  while (!queue.empty() && !(queue.top().key > acc.WorstDistance())) {
    Item top = queue.top();
    queue.pop();
    if (top.entry != nullptr) {
      NEURODB_RETURN_NOT_OK(scan(*top.entry, &acc));
      continue;
    }
    const Node& n = nodes_[top.node];
    if (stats != nullptr) stats->CountNode(n.level);
    if (n.IsLeaf()) {
      for (const auto& e : n.entries) {
        if (stats != nullptr) ++stats->entries_tested;
        push(e.bounds, -1, &e);
      }
    } else {
      for (int32_t c : n.children) {
        if (stats != nullptr) ++stats->entries_tested;
        push(nodes_[c].bounds, c, nullptr);
      }
    }
  }
  *hits = acc.TakeSorted();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

int RTree::Height() const {
  if (root_ == -1) return 0;
  return nodes_[root_].level + 1;
}

size_t RTree::MemoryBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(Node);
  for (const auto& n : nodes_) {
    bytes += n.children.capacity() * sizeof(int32_t);
    bytes += n.entries.capacity() * sizeof(SpatialElement);
  }
  return bytes;
}

Status RTree::CheckInvariants() const {
  if (root_ == -1) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree with nonzero size");
  }
  if (nodes_[root_].parent != -1) {
    return Status::Corruption("root has a parent");
  }

  size_t element_count = 0;
  int leaf_level = -1;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];

    if (id != root_ && n.children.empty() && n.entries.empty()) {
      return Status::Corruption("non-root node is empty");
    }
    if (n.IsLeaf()) {
      if (leaf_level == -1) leaf_level = n.level;
      if (n.level != 0) return Status::Corruption("leaf at nonzero level");
      if (n.entries.size() > options_.LeafCapacity()) {
        return Status::Corruption("leaf overflow");
      }
      element_count += n.entries.size();
      Aabb box;
      for (const auto& e : n.entries) box.Extend(e.bounds);
      if (!n.entries.empty() && box != n.bounds) {
        return Status::Corruption("leaf bounds not tight");
      }
    } else {
      if (n.children.size() > options_.max_entries) {
        return Status::Corruption("internal node overflow");
      }
      Aabb box;
      for (int32_t c : n.children) {
        const Node& child = nodes_[c];
        if (child.parent != id) {
          return Status::Corruption("child parent pointer mismatch");
        }
        if (child.level != n.level - 1) {
          return Status::Corruption("child level mismatch (tree not balanced)");
        }
        if (!n.bounds.Contains(child.bounds)) {
          return Status::Corruption("child bounds escape parent");
        }
        box.Extend(child.bounds);
        stack.push_back(c);
      }
      if (box != n.bounds) {
        return Status::Corruption("internal bounds not tight");
      }
    }
  }
  if (element_count != size_) {
    return Status::Corruption("element count mismatch: counted " +
                              std::to_string(element_count) + ", size() says " +
                              std::to_string(size_));
  }
  return Status::OK();
}

namespace {

// Pairwise overlap volume of `boxes`, exact up to `exact_limit` boxes and
// estimated from a deterministic stride sample beyond it.
double PairwiseOverlap(const std::vector<Aabb>& boxes, size_t exact_limit,
                       bool* sampled) {
  const size_t n = boxes.size();
  *sampled = false;
  if (n < 2) return 0.0;
  if (n <= exact_limit) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        total += geom::OverlapVolume(boxes[i], boxes[j]);
      }
    }
    return total;
  }
  *sampled = true;
  const size_t stride = (n + exact_limit - 1) / exact_limit;
  std::vector<Aabb> sample;
  sample.reserve(exact_limit);
  for (size_t i = 0; i < n; i += stride) sample.push_back(boxes[i]);
  const size_t s = sample.size();
  double total = 0.0;
  for (size_t i = 0; i < s; ++i) {
    for (size_t j = i + 1; j < s; ++j) {
      total += geom::OverlapVolume(sample[i], sample[j]);
    }
  }
  const double pairs = static_cast<double>(n) * (n - 1);
  const double sample_pairs = static_cast<double>(s) * (s - 1);
  return total * pairs / sample_pairs;
}

}  // namespace

std::vector<LevelStats> RTree::LevelProfile() const {
  std::vector<LevelStats> levels;
  if (root_ == -1) return levels;
  levels.resize(nodes_[root_].level + 1);
  std::vector<std::vector<Aabb>> boxes(levels.size());

  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    LevelStats& ls = levels[n.level];
    ++ls.nodes;
    boxes[n.level].push_back(n.bounds);
    ls.total_volume += n.bounds.Volume();
    const Vec3 ext = n.bounds.Extent();
    ls.sum_face_area += static_cast<double>(ext.x) * ext.y +
                        static_cast<double>(ext.y) * ext.z +
                        static_cast<double>(ext.z) * ext.x;
    ls.sum_extent +=
        static_cast<double>(ext.x) + static_cast<double>(ext.y) + ext.z;
    if (n.IsLeaf()) {
      ls.entries += n.entries.size();
    } else {
      ls.entries += n.children.size();
      for (int32_t c : n.children) stack.push_back(c);
    }
  }

  constexpr size_t kOverlapExactLimit = 1024;
  for (size_t level = 0; level < levels.size(); ++level) {
    LevelStats& ls = levels[level];
    ls.level = static_cast<int>(level);
    ls.capacity = level == 0 ? options_.LeafCapacity() : options_.max_entries;
    ls.mean_fill =
        ls.nodes == 0
            ? 0.0
            : static_cast<double>(ls.entries) /
                  (static_cast<double>(ls.nodes) * ls.capacity);
    ls.overlap_volume =
        PairwiseOverlap(boxes[level], kOverlapExactLimit, &ls.overlap_sampled);
  }
  return levels;
}

}  // namespace rtree
}  // namespace neurodb
