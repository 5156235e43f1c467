#include "rtree/rtree.h"

#include <algorithm>
#include <numeric>
#include <queue>

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
  if (leaf_capacity == 1) {
    return Status::InvalidArgument(
        "RTreeOptions: leaf_capacity must be 0 or >= 2");
  }
  return Status::OK();
}

RTree::RTree(RTreeOptions options) : options_(options) {}

int32_t RTree::NewNode(int level) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().level = level;
  return id;
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

  const size_t fanout = options.max_entries;
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
        tree.nodes_[pid].bounds.Extend(tree.nodes_[child].bounds);
      }
      parents.push_back(pid);
    }
    current = std::move(parents);
  }
  tree.root_ = current[0];
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
  const size_t run = options.LeafCapacity();
  std::vector<uint32_t> order = storage::StrOrder(elements, run);
  return PackLevels(PackLeaves(elements, order, run), options,
                    elements.size());
}

Result<RTree> RTree::BulkLoadPages(const std::vector<Aabb>& page_bounds) {
  ElementVec entries;
  entries.reserve(page_bounds.size());
  for (uint32_t i = 0; i < page_bounds.size(); ++i) {
    entries.emplace_back(static_cast<ElementId>(i), page_bounds[i]);
  }
  return BulkLoadStr(entries);
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
