// TOUCH — in-memory spatial join by hierarchical data-oriented partitioning
// (Nobari et al., SIGMOD'13; paper Section 4.1).
//
// Phase 1 (build): dataset A is packed into an STR hierarchy. Data-oriented
// partitioning opens up *empty space* between partitions and — unlike
// PBSM's space-oriented grid — never replicates elements.
//
// Phase 2 (assign): each object b of B descends from the root towards the
// single child whose epsilon-expanded MBR it intersects. If no child
// matches, b lies in empty space and is *filtered* (it can join nothing).
// If several match, b stops and is bucketed at the current internal node.
// A counting pass then lays the buckets out in one flat array.
//
// Phase 3 (probe): buckets are joined against the subtree below their node.
// A group of bucket objects descends together, filtering the group against
// each child's (pre-expanded) MBR, so the tree is walked once per group
// rather than once per object and every leaf's entries are scanned with the
// group of survivors that actually reach it.
//
// Assignment and probe run on all hardware threads over fixed work items:
// kChunk-object chunks of B, then kChunk-object chunks of each bucket (one
// bucket, the root's, can hold half of B, so whole buckets balance badly).
// The items depend only on the input. Each writes its own pairs and
// counters, merged in item order, so the pair sequence and every counter
// are the same for any thread count and any schedule.

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/stats.h"
#include "exec/parallel_executor.h"
#include "rtree/rtree.h"
#include "touch/join_common.h"
#include "touch/spatial_join.h"

namespace neurodb {
namespace touch {

namespace {

/// B objects per work item, in the assignment and in the probe.
constexpr size_t kChunk = 4096;

/// Assignment of a B object filtered in empty space.
constexpr int32_t kFiltered = -1;

/// Per-leaf local-join acceleration: the entries' epsilon-expanded boxes
/// sorted by min.x (with the original entry position alongside), plus the
/// widest x-extent in the leaf. A probe then only scans the x-window
/// [b.min.x - max_width, b.max.x] — the in-partition sweep the TOUCH paper
/// uses for its local joins.
struct LeafIndex {
  std::vector<geom::Aabb> boxes;     // expanded, sorted by min.x
  std::vector<uint32_t> positions;   // position in A, parallel to boxes
  float max_width = 0.0f;
};

/// A B object in a probe group. Its box travels with it, so each level
/// filters a contiguous array instead of gathering from B's boxes.
struct Probe {
  geom::Aabb box;
  uint32_t j;  // position in B
};

/// One probe work item: bucketed[begin, end) of the bucket at `node`.
struct ProbeItem {
  int32_t node;
  uint32_t begin;
  uint32_t end;
};

/// What one work item adds to the result.
struct ItemOutput {
  std::vector<JoinPair> pairs;
  JoinStats stats;
};

struct TouchContext {
  const JoinInput* a;
  const JoinInput* b;
  const rtree::RTree* tree;
  const std::vector<geom::Aabb>* node_expanded;  // node MBRs + epsilon
  const std::vector<LeafIndex>* leaves;          // indexed by node id
  const JoinOptions* options;
};

/// Live auxiliary bytes of one join and their high-water mark
/// (JoinStats::peak_bytes).
struct MemoryLedger {
  uint64_t live = 0;
  uint64_t peak = 0;

  void Hold(uint64_t bytes) {
    live += bytes;
    peak = std::max(peak, live);
  }
  void Release(uint64_t bytes) { live -= bytes; }
};

template <typename T>
uint64_t Bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

void AddCounters(const JoinStats& from, JoinStats* to) {
  to->mbr_tests += from.mbr_tests;
  to->node_tests += from.node_tests;
  to->refine_tests += from.refine_tests;
  to->filtered += from.filtered;
}

/// Lanes for `items` work items: one per hardware thread, at most one per
/// item, and a single inline lane when the caller is itself a pool worker
/// (the nesting rule of exec::ThreadPool).
size_t TeamSize(size_t items) {
  if (exec::ThreadPool::InWorker()) return std::min<size_t>(1, items);
  return std::min(exec::HardwareThreads(), items);
}

/// Runs body(item, lane) for every item in [0, items) on `team` lanes that
/// claim items from a shared cursor. `pool` is started by the first call
/// that needs more than one lane and reused by the join's later phases.
template <typename Body>
Status ForEachItem(size_t items, size_t team,
                   std::unique_ptr<exec::ThreadPool>* pool, const Body& body) {
  if (team > 1 && *pool == nullptr) {
    *pool = std::make_unique<exec::ThreadPool>(exec::HardwareThreads());
  }
  std::atomic<size_t> cursor{0};
  return exec::ParallelExecutor(pool->get())
      .Run(exec::PartitionLanes(team, team),
           [&](const exec::LaneRange& lane) {
             for (size_t i = cursor++; i < items; i = cursor++) {
               body(i, lane.lane);
             }
             return Status::OK();
           });
}

/// The node whose bucket receives `bj`, or kFiltered when `bj` falls into
/// empty space.
int32_t Assign(const TouchContext& ctx, const geom::Aabb& bj,
               JoinStats* stats) {
  const std::vector<geom::Aabb>& expanded = *ctx.node_expanded;
  int32_t cur = ctx.tree->root();
  // Check the root itself first: B objects outside A's space are dead.
  ++stats->node_tests;
  if (!expanded[cur].Intersects(bj)) {
    ++stats->filtered;
    return kFiltered;
  }
  for (;;) {
    const rtree::RTree::Node& n = ctx.tree->node(cur);
    if (n.IsLeaf()) return cur;
    int32_t matched = -1;
    int matches = 0;
    for (int32_t child : n.children) {
      ++stats->node_tests;
      if (expanded[child].Intersects(bj)) {
        ++matches;
        matched = child;
        if (matches > 1) break;
      }
    }
    if (matches == 0) {
      // Empty space between the children's partitions: filtered.
      ++stats->filtered;
      return kFiltered;
    }
    // Overlaps several partitions: bucket here.
    if (matches > 1) return cur;
    cur = matched;
  }
}

/// Join `group` against the subtree at `node_id`. `scratch` provides one
/// survivor buffer per tree level; `depth` is the first one this call may
/// use.
void ProbeGroup(const TouchContext& ctx, int32_t node_id,
                const std::vector<Probe>& group,
                std::vector<std::vector<Probe>>* scratch, size_t depth,
                ItemOutput* out) {
  const rtree::RTree::Node& n = ctx.tree->node(node_id);
  JoinStats* stats = &out->stats;

  if (n.IsLeaf()) {
    const bool refine = ctx.a->HasGeometry() && ctx.b->HasGeometry();
    const LeafIndex& leaf = (*ctx.leaves)[node_id];
    const size_t entries = leaf.boxes.size();
    for (const Probe& p : group) {
      // x-window: entries sorted by min.x can only intersect p.box if their
      // min.x lies in [p.box.min.x - widest extent, p.box.max.x].
      const float lo = p.box.min.x - leaf.max_width;
      size_t k = std::lower_bound(leaf.boxes.begin(), leaf.boxes.end(), lo,
                                  [](const geom::Aabb& box, float v) {
                                    return box.min.x < v;
                                  }) -
                 leaf.boxes.begin();
      for (; k < entries && leaf.boxes[k].min.x <= p.box.max.x; ++k) {
        ++stats->mbr_tests;
        if (!leaf.boxes[k].Intersects(p.box)) continue;
        uint32_t i = leaf.positions[k];
        if (refine) {
          ++stats->refine_tests;
          if (geom::CapsuleDistance(ctx.a->segments[i],
                                    ctx.b->segments[p.j]) >
              static_cast<double>(ctx.options->epsilon)) {
            continue;
          }
        }
        out->pairs.push_back(JoinPair{ctx.a->ids[i], ctx.b->ids[p.j]});
      }
    }
    return;
  }

  // `scratch` is pre-sized to the tree height by the caller; resizing here
  // would invalidate the survivor buffers of shallower recursion levels.
  std::vector<Probe>& survivors = (*scratch)[depth];
  for (int32_t child : n.children) {
    const geom::Aabb& child_box = (*ctx.node_expanded)[child];
    survivors.clear();
    for (const Probe& p : group) {
      ++stats->node_tests;
      if (child_box.Intersects(p.box)) survivors.push_back(p);
    }
    if (!survivors.empty()) {
      ProbeGroup(ctx, child, survivors, scratch, depth + 1, out);
    }
  }
}

}  // namespace

Result<JoinResult> TouchJoin(const JoinInput& a, const JoinInput& b,
                             const JoinOptions& options) {
  NEURODB_RETURN_NOT_OK(internal::ValidateJoinArgs(a, b, options));

  JoinResult out;
  Timer total;
  if (a.size() == 0 || b.size() == 0) {
    out.stats.filtered = b.size();
    out.stats.total_ns = total.ElapsedNanos();
    return out;
  }
  MemoryLedger memory;

  // Phase 1: build the data-oriented hierarchy over A.
  Timer build;
  rtree::RTreeOptions tree_options;
  tree_options.max_entries = options.touch_fanout;
  tree_options.leaf_capacity = options.touch_leaf;

  geom::ElementVec elems_a;
  elems_a.reserve(a.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    elems_a.emplace_back(static_cast<geom::ElementId>(i), a.boxes[i]);
  }
  memory.Hold(Bytes(elems_a));
  NEURODB_ASSIGN_OR_RETURN(rtree::RTree tree,
                           rtree::RTree::BulkLoadStr(elems_a, tree_options));
  memory.Hold(tree.MemoryBytes());
  memory.Release(Bytes(elems_a));
  geom::ElementVec().swap(elems_a);

  // Epsilon-expanded node MBRs, computed once: the prune test of both the
  // assignment and the probe phases. Leaf entries additionally get a
  // min.x-sorted expanded-box array for the local sweep.
  std::vector<geom::Aabb> node_expanded(tree.NumNodes());
  std::vector<LeafIndex> leaves(tree.NumNodes());
  for (size_t id = 0; id < tree.NumNodes(); ++id) {
    const rtree::RTree::Node& n = tree.node(static_cast<int32_t>(id));
    node_expanded[id] = n.bounds.Expanded(options.epsilon);
    if (!n.IsLeaf()) continue;
    LeafIndex& leaf = leaves[id];
    std::vector<uint32_t> order(n.entries.size());
    for (uint32_t k = 0; k < n.entries.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return n.entries[x].bounds.min.x < n.entries[y].bounds.min.x;
    });
    leaf.boxes.reserve(order.size());
    leaf.positions.reserve(order.size());
    for (uint32_t k : order) {
      geom::Aabb expanded = n.entries[k].bounds.Expanded(options.epsilon);
      leaf.max_width =
          std::max(leaf.max_width, expanded.max.x - expanded.min.x);
      leaf.boxes.push_back(expanded);
      leaf.positions.push_back(static_cast<uint32_t>(n.entries[k].id));
    }
  }
  memory.Hold(Bytes(node_expanded) + Bytes(leaves));
  for (const LeafIndex& leaf : leaves) {
    memory.Hold(Bytes(leaf.boxes) + Bytes(leaf.positions));
  }
  out.stats.build_ns = build.ElapsedNanos();

  // Phase 2: hierarchical assignment of B (with empty-space filtering),
  // one independent descent per object.
  Timer assign;
  const TouchContext ctx{&a, &b, &tree, &node_expanded, &leaves, &options};
  std::unique_ptr<exec::ThreadPool> pool;
  std::vector<int32_t> node_of(b.size());
  memory.Hold(Bytes(node_of));
  const size_t assign_items = (b.size() + kChunk - 1) / kChunk;
  std::vector<JoinStats> assign_stats(assign_items);
  NEURODB_RETURN_NOT_OK(ForEachItem(
      assign_items, TeamSize(assign_items), &pool,
      [&](size_t item, size_t /*lane*/) {
        const size_t end = std::min(b.size(), (item + 1) * kChunk);
        for (size_t j = item * kChunk; j < end; ++j) {
          node_of[j] = Assign(ctx, b.boxes[j], &assign_stats[item]);
        }
      }));
  for (const JoinStats& stats : assign_stats) AddCounters(stats, &out.stats);

  // Counting sort of B by bucket: bucket n is bucketed[offsets[n],
  // offsets[n + 1]), in B order. offsets[n] first counts, then (prefix
  // sums) ends, and the backwards fill leaves it at the bucket's start.
  const size_t num_nodes = tree.NumNodes();
  std::vector<uint32_t> offsets(num_nodes + 1, 0);
  for (int32_t node : node_of) {
    if (node != kFiltered) ++offsets[node];
  }
  for (size_t n = 1; n <= num_nodes; ++n) offsets[n] += offsets[n - 1];
  std::vector<uint32_t> bucketed(offsets[num_nodes]);
  memory.Hold(Bytes(offsets) + Bytes(bucketed));
  for (size_t j = b.size(); j-- > 0;) {
    if (node_of[j] != kFiltered) {
      bucketed[--offsets[node_of[j]]] = static_cast<uint32_t>(j);
    }
  }
  memory.Release(Bytes(node_of));
  std::vector<int32_t>().swap(node_of);
  out.stats.assign_ns = assign.ElapsedNanos();

  // Phase 3: probe each bucket, kChunk objects at a time, against the
  // subtree below it.
  Timer probe;
  std::vector<ProbeItem> items;
  for (size_t n = 0; n < num_nodes; ++n) {
    for (uint32_t begin = offsets[n]; begin < offsets[n + 1];
         begin += kChunk) {
      items.push_back(ProbeItem{
          static_cast<int32_t>(n), begin,
          std::min<uint32_t>(begin + kChunk, offsets[n + 1])});
    }
  }
  std::vector<ItemOutput> outputs(items.size());
  // Per lane: slot 0 holds the gathered group and slot d the survivors
  // entering depth d. A group never exceeds kChunk objects, so one
  // reservation bounds every slot for the whole probe.
  const size_t team = TeamSize(items.size());
  const size_t group_capacity = std::min(kChunk, bucketed.size());
  std::vector<std::vector<std::vector<Probe>>> scratch(
      team, std::vector<std::vector<Probe>>(tree.Height()));
  for (auto& lane : scratch) {
    for (std::vector<Probe>& slot : lane) slot.reserve(group_capacity);
  }
  const uint64_t scratch_bytes =
      team * tree.Height() * group_capacity * sizeof(Probe);
  memory.Hold(Bytes(items) + Bytes(outputs) + scratch_bytes);
  NEURODB_RETURN_NOT_OK(ForEachItem(
      items.size(), team, &pool, [&](size_t i, size_t lane) {
        const ProbeItem& item = items[i];
        std::vector<Probe>& group = scratch[lane][0];
        group.clear();
        for (uint32_t k = item.begin; k < item.end; ++k) {
          group.push_back(Probe{b.boxes[bucketed[k]], bucketed[k]});
        }
        ProbeGroup(ctx, item.node, group, &scratch[lane], 1, &outputs[i]);
      }));

  // Merge in item order. Every item's pairs are still held while out.pairs
  // fills, so the peak counts both.
  size_t total_pairs = 0;
  uint64_t item_pair_bytes = 0;
  for (const ItemOutput& item : outputs) {
    total_pairs += item.pairs.size();
    item_pair_bytes += Bytes(item.pairs);
  }
  memory.Hold(item_pair_bytes);
  memory.Release(scratch_bytes);
  scratch.clear();
  out.pairs.reserve(total_pairs);
  memory.Hold(Bytes(out.pairs));
  for (const ItemOutput& item : outputs) {
    out.pairs.insert(out.pairs.end(), item.pairs.begin(), item.pairs.end());
    AddCounters(item.stats, &out.stats);
  }
  out.stats.probe_ns = probe.ElapsedNanos();
  out.stats.total_ns = total.ElapsedNanos();
  out.stats.results = out.pairs.size();
  out.stats.peak_bytes = memory.peak;
  return out;
}

}  // namespace touch
}  // namespace neurodb
