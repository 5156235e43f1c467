// S3 — synchronized R-tree traversal join (Brinkhoff et al., SIGMOD'93
// lineage). Builds an STR-packed R-tree on each input and recursively joins
// intersecting node pairs. The paper cites it as the memory-frugal baseline
// that TOUCH beats by about two orders of magnitude on dense data: index
// overlap makes the number of node-pair comparisons explode.

#include "common/stats.h"
#include "rtree/rtree.h"
#include "touch/join_common.h"
#include "touch/spatial_join.h"

namespace neurodb {
namespace touch {

namespace {

/// Fanout of the two R-trees.
constexpr size_t kFanout = 16;

struct S3Context {
  const JoinInput* a;
  const JoinInput* b;
  const std::vector<geom::Aabb>* ea;  // expanded A boxes by position
  const rtree::RTree* tree_a;
  const rtree::RTree* tree_b;
  const JoinOptions* options;
  float eps;
  JoinResult* out;
};

void JoinNodes(const S3Context& ctx, int32_t na, int32_t nb) {
  const rtree::RTree::Node& node_a = ctx.tree_a->node(na);
  const rtree::RTree::Node& node_b = ctx.tree_b->node(nb);

  if (node_a.IsLeaf() && node_b.IsLeaf()) {
    for (const auto& entry_a : node_a.entries) {
      for (const auto& entry_b : node_b.entries) {
        uint32_t i = static_cast<uint32_t>(entry_a.id);
        uint32_t j = static_cast<uint32_t>(entry_b.id);
        if (internal::PairMatches(*ctx.a, *ctx.b, *ctx.ea, i, j, *ctx.options,
                                  &ctx.out->stats)) {
          ctx.out->pairs.push_back(
              JoinPair{ctx.a->ids[i], ctx.b->ids[j]});
        }
      }
    }
    return;
  }

  if (node_b.IsLeaf() || (!node_a.IsLeaf() && node_a.level >= node_b.level)) {
    // Descend A.
    for (int32_t child : node_a.children) {
      ++ctx.out->stats.node_tests;
      if (ctx.tree_a->node(child).bounds.Expanded(ctx.eps).Intersects(
              node_b.bounds)) {
        JoinNodes(ctx, child, nb);
      }
    }
  } else {
    // Descend B.
    for (int32_t child : node_b.children) {
      ++ctx.out->stats.node_tests;
      if (node_a.bounds.Expanded(ctx.eps).Intersects(
              ctx.tree_b->node(child).bounds)) {
        JoinNodes(ctx, na, child);
      }
    }
  }
}

}  // namespace

Result<JoinResult> S3Join(const JoinInput& a, const JoinInput& b,
                          const JoinOptions& options) {
  NEURODB_RETURN_NOT_OK(internal::ValidateJoinArgs(a, b, options));

  JoinResult out;
  Timer total;
  if (a.size() == 0 || b.size() == 0) {
    out.stats.total_ns = total.ElapsedNanos();
    return out;
  }

  Timer build;
  std::vector<geom::Aabb> ea = internal::ExpandAll(a.boxes, options.epsilon);

  rtree::RTreeOptions tree_options;
  tree_options.max_entries = kFanout;

  // Trees store positions (0..n-1) as entry ids; output maps to real ids.
  geom::ElementVec elems_a;
  elems_a.reserve(a.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    elems_a.emplace_back(static_cast<geom::ElementId>(i), a.boxes[i]);
  }
  geom::ElementVec elems_b;
  elems_b.reserve(b.size());
  for (uint32_t j = 0; j < b.size(); ++j) {
    elems_b.emplace_back(static_cast<geom::ElementId>(j), b.boxes[j]);
  }
  NEURODB_ASSIGN_OR_RETURN(rtree::RTree tree_a,
                           rtree::RTree::BulkLoadStr(elems_a, tree_options));
  NEURODB_ASSIGN_OR_RETURN(rtree::RTree tree_b,
                           rtree::RTree::BulkLoadStr(elems_b, tree_options));
  out.stats.build_ns = build.ElapsedNanos();
  out.stats.peak_bytes = tree_a.MemoryBytes() + tree_b.MemoryBytes() +
                         ea.capacity() * sizeof(geom::Aabb);

  Timer probe;
  S3Context ctx{&a, &b, &ea, &tree_a, &tree_b, &options, options.epsilon,
                &out};
  ++out.stats.node_tests;
  if (tree_a.node(tree_a.root())
          .bounds.Expanded(options.epsilon)
          .Intersects(tree_b.node(tree_b.root()).bounds)) {
    JoinNodes(ctx, tree_a.root(), tree_b.root());
  }
  out.stats.probe_ns = probe.ElapsedNanos();
  out.stats.total_ns = total.ElapsedNanos();
  out.stats.results = out.pairs.size();
  return out;
}

}  // namespace touch
}  // namespace neurodb
