#include "rtree/paged_rtree.h"

#include <cmath>
#include <queue>

namespace neurodb {
namespace rtree {

using geom::Aabb;
using geom::ElementId;
using geom::SpatialElement;

Result<PagedRTree> PagedRTree::Build(RTree tree, storage::PageStore* store) {
  if (store == nullptr) {
    return Status::InvalidArgument("PagedRTree::Build: null store");
  }
  PagedRTree paged(std::move(tree));
  const RTree& t = paged.tree_;
  paged.node_pages_.resize(t.NumNodes(), storage::kInvalidPageId);
  for (size_t id = 0; id < t.NumNodes(); ++id) {
    const RTree::Node& n = t.node(static_cast<int32_t>(id));
    storage::PageId page = store->Allocate();
    std::vector<SpatialElement> payload;
    if (n.IsLeaf()) {
      payload = n.entries;
    } else {
      payload.reserve(n.children.size());
      for (int32_t c : n.children) {
        payload.emplace_back(static_cast<ElementId>(c), t.node(c).bounds);
      }
    }
    NEURODB_RETURN_NOT_OK(store->Write(page, std::move(payload)));
    paged.node_pages_[id] = page;
  }
  return paged;
}

Status PagedRTree::RangeQuery(const Aabb& box, geom::ResultVisitor& visitor,
                              storage::BufferPool* pool,
                              QueryStats* stats) const {
  if (pool == nullptr) {
    return Status::InvalidArgument("PagedRTree::RangeQuery: null pool");
  }
  if (tree_.root() == -1) return Status::OK();

  std::vector<int32_t> stack = {tree_.root()};
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    const RTree::Node& n = tree_.node(id);
    // Fetching the node's page is what the disk-resident index would do.
    auto page = pool->Fetch(node_pages_[id],
                            stats != nullptr ? &stats->pool : nullptr);
    if (!page.ok()) return page.status();
    if (stats != nullptr) stats->CountNode(n.level);

    if (n.IsLeaf()) {
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
          stack.push_back(static_cast<int32_t>(branch.id));
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
  if (k == 0 || tree_.root() == -1) return Status::OK();

  struct Frontier {
    double dist;
    int32_t node;
    bool operator>(const Frontier& o) const { return dist > o.dist; }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<Frontier>>
      frontier;
  frontier.push({geom::KnnDistance(p, tree_.node(tree_.root()).bounds),
                 tree_.root()});

  geom::KnnAccumulator acc(k);
  while (!frontier.empty()) {
    Frontier top = frontier.top();
    frontier.pop();
    // Strict prune: a node at distance == the kth best may still hold an
    // equal-distance element with a smaller id.
    if (acc.Full() && top.dist > acc.WorstDistance()) break;

    const RTree::Node& n = tree_.node(top.node);
    auto page = pool->Fetch(node_pages_[top.node],
                            stats != nullptr ? &stats->pool : nullptr);
    if (!page.ok()) return page.status();
    if (stats != nullptr) stats->CountNode(n.level);

    if (n.IsLeaf()) {
      for (const auto& e : (*page)->elements) {
        if (stats != nullptr) ++stats->entries_tested;
        acc.Offer(e.id, geom::KnnDistance(p, e.bounds));
      }
    } else {
      for (const auto& branch : (*page)->elements) {
        if (stats != nullptr) ++stats->entries_tested;
        double dist = geom::KnnDistance(p, branch.bounds);
        if (acc.Full() && dist > acc.WorstDistance()) continue;
        frontier.push({dist, static_cast<int32_t>(branch.id)});
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
