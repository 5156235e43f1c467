#include "rtree/paged_rtree.h"

#include <queue>

namespace neurodb {
namespace rtree {

using geom::Aabb;
using geom::ElementId;
using geom::SpatialElement;

Result<PagedRTree> PagedRTree::Build(const RTree& tree,
                                     storage::PageStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("PagedRTree::Build: null store");
  }
  PagedRTree paged;
  paged.node_pages_.resize(tree.NumNodes(), storage::kInvalidPageId);
  for (size_t id = 0; id < tree.NumNodes(); ++id) {
    const RTree::Node& n = tree.node(static_cast<int32_t>(id));
    storage::PageId page = store->Allocate();
    std::vector<SpatialElement> payload;
    if (n.IsLeaf()) {
      payload = n.entries;
    } else {
      payload.reserve(n.children.size());
      for (int32_t c : n.children) {
        payload.emplace_back(static_cast<ElementId>(c), tree.node(c).bounds);
      }
    }
    NEURODB_RETURN_NOT_OK(store->Write(page, std::move(payload)));
    paged.node_pages_[id] = page;
  }
  paged.root_ = tree.root();
  if (paged.root_ != -1) paged.root_bounds_ = tree.node(paged.root_).bounds;
  paged.height_ = tree.Height();
  paged.size_ = tree.size();
  paged.levels_ = tree.LevelProfile();
  return paged;
}

size_t PagedRTree::MemoryBytes() const {
  return node_pages_.capacity() * sizeof(storage::PageId) +
         levels_.capacity() * sizeof(LevelStats);
}

Status PagedRTree::RangeQuery(const Aabb& box, geom::ResultVisitor& visitor,
                              storage::BufferPool* pool,
                              QueryStats* stats) const {
  if (pool == nullptr) {
    return Status::InvalidArgument("PagedRTree::RangeQuery: null pool");
  }
  if (root_ == -1) return Status::OK();

  // A node's level is its parent's minus one: the walk carries it down from
  // the root, since the fetched page holds only the node's entries.
  struct Visit {
    int32_t node;
    int32_t level;
  };
  std::vector<Visit> stack = {{root_, height_ - 1}};
  while (!stack.empty()) {
    Visit v = stack.back();
    stack.pop_back();
    auto page = pool->Fetch(node_pages_[v.node],
                            stats != nullptr ? &stats->pool : nullptr);
    if (!page.ok()) return page.status();
    if (stats != nullptr) stats->CountNode(v.level);

    if (v.level == 0) {
      for (const auto& e : (*page)->elements) {
        if (stats != nullptr) ++stats->entries_tested;
        if (e.bounds.Intersects(box)) {
          visitor.Visit(e.id, e.bounds);
          if (stats != nullptr) ++stats->results;
        }
      }
    } else {
      for (const auto& branch : (*page)->elements) {
        if (stats != nullptr) ++stats->entries_tested;
        if (branch.bounds.Intersects(box)) {
          stack.push_back({static_cast<int32_t>(branch.id), v.level - 1});
        }
      }
    }
  }
  return Status::OK();
}

Status PagedRTree::Knn(const geom::Vec3& p, size_t k,
                       storage::BufferPool* pool,
                       std::vector<geom::KnnHit>* hits,
                       QueryStats* stats) const {
  if (pool == nullptr) {
    return Status::InvalidArgument("PagedRTree::Knn: null pool");
  }
  if (hits == nullptr) {
    return Status::InvalidArgument("PagedRTree::Knn: null output");
  }
  if (!geom::IsFinitePoint(p)) {
    return Status::InvalidArgument("PagedRTree::Knn: non-finite query point");
  }
  hits->clear();
  if (k == 0 || root_ == -1) return Status::OK();

  struct Frontier {
    double dist;
    int32_t node;
    int32_t level;
    bool operator>(const Frontier& o) const { return dist > o.dist; }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<Frontier>>
      frontier;
  frontier.push({geom::KnnDistance(p, root_bounds_), root_, height_ - 1});

  geom::KnnAccumulator acc(k);
  while (!frontier.empty()) {
    Frontier top = frontier.top();
    frontier.pop();
    // Strict prune: a node at distance == the kth best may still hold an
    // equal-distance element with a smaller id.
    if (acc.Full() && top.dist > acc.WorstDistance()) break;

    auto page = pool->Fetch(node_pages_[top.node],
                            stats != nullptr ? &stats->pool : nullptr);
    if (!page.ok()) return page.status();
    if (stats != nullptr) stats->CountNode(top.level);

    if (top.level == 0) {
      for (const auto& e : (*page)->elements) {
        if (stats != nullptr) ++stats->entries_tested;
        acc.Offer(e.id, geom::KnnDistance(p, e.bounds));
      }
    } else {
      for (const auto& branch : (*page)->elements) {
        if (stats != nullptr) ++stats->entries_tested;
        double dist = geom::KnnDistance(p, branch.bounds);
        if (acc.Full() && dist > acc.WorstDistance()) continue;
        frontier.push({dist, static_cast<int32_t>(branch.id), top.level - 1});
      }
    }
  }

  *hits = acc.TakeSorted();
  if (stats != nullptr) stats->results = hits->size();
  return Status::OK();
}

Status PagedRTree::RangeQuery(const Aabb& box, std::vector<ElementId>* out,
                              storage::BufferPool* pool,
                              QueryStats* stats) const {
  if (out == nullptr) {
    return Status::InvalidArgument("PagedRTree::RangeQuery: null output");
  }
  geom::VectorVisitor visitor(out);
  return RangeQuery(box, visitor, pool, stats);
}

}  // namespace rtree
}  // namespace neurodb
