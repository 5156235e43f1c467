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
// A group of bucket objects descends together: at each node every member's
// box is tested once against all the children's (pre-expanded) MBRs, and
// each child receives the members that hit it, in group order. So the tree
// is walked once per group rather than once per object, and every leaf's
// entries are scanned with the group of survivors that actually reach it.
// A leaf's entries are sorted by min.x, and a probe b scans only the
// x-window [b.min.x - widest extent, b.max.x] (the in-partition sweep the
// TOUCH paper uses for its local joins). The window start is computed in
// double and rounded down, so rounding never skips an entry that touches b.
//
// The box tests run four at a time. The build stores the children's boxes
// of every internal node, and the entries of every leaf, in six float
// columns (min and max x/y/z), each node's or leaf's run starting at a
// multiple of 4 and padded to one with boxes that intersect nothing. One
// step compares a B box with four boxes of a run and gives a 4-bit mask
// (GCC/Clang vector extensions: SSE2 on x86-64, NEON on AArch64). Hits are
// visited in entry order, and the counters count what a box-at-a-time loop
// tests: mbr_tests the entries in each window, node_tests each (member,
// child) pair of a probe group and, in the assignment, the children up to
// the second match.
//
// Assignment and probe run on all hardware threads over fixed work items:
// kChunk-object chunks of B, then kChunk-object chunks of each bucket (one
// bucket, the root's, can hold half of B, so whole buckets balance badly).
// The items depend only on the input. Each writes its own pairs and
// counters, merged in item order, so the pair sequence and every counter
// are the same for any thread count and any schedule.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
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

/// Children per probe mask word.
constexpr size_t kMaskBits = 64;

/// Four lanes of floats, and the lane masks (0 or -1) their comparisons give.
using V4f = float __attribute__((vector_size(16)));
using V4i = int32_t __attribute__((vector_size(16)));

size_t RoundUp4(size_t n) { return (n + 3) & ~size_t{3}; }

template <typename T>
uint64_t Bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Boxes in six float columns (struct of arrays). Each run of boxes starts
/// at a multiple of 4 and is padded to one with boxes that intersect
/// nothing (min +inf, max -inf), so a four-box load never leaves the run's
/// padding.
struct BoxColumns {
  std::vector<float> min_x, min_y, min_z, max_x, max_y, max_z;

  size_t size() const { return min_x.size(); }

  void Reserve(size_t n) {
    for (std::vector<float>* c : {&min_x, &min_y, &min_z, &max_x, &max_y,
                                  &max_z}) {
      c->reserve(n);
    }
  }

  void Append(const geom::Aabb& box) {
    min_x.push_back(box.min.x);
    min_y.push_back(box.min.y);
    min_z.push_back(box.min.z);
    max_x.push_back(box.max.x);
    max_y.push_back(box.max.y);
    max_z.push_back(box.max.z);
  }

  /// Ends a run.
  void Pad() {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    while (size() % 4 != 0) {
      Append(geom::Aabb({kInf, kInf, kInf}, {-kInf, -kInf, -kInf}));
    }
  }

  uint64_t MemoryBytes() const {
    return Bytes(min_x) + Bytes(min_y) + Bytes(min_z) + Bytes(max_x) +
           Bytes(max_y) + Bytes(max_z);
  }
};

/// The columns' data, copied into a local so the loops keep it in
/// registers.
struct ColumnView {
  const float *min_x, *min_y, *min_z, *max_x, *max_y, *max_z;

  explicit ColumnView(const BoxColumns& c)
      : min_x(c.min_x.data()),
        min_y(c.min_y.data()),
        min_z(c.min_z.data()),
        max_x(c.max_x.data()),
        max_y(c.max_y.data()),
        max_z(c.max_z.data()) {}
};

inline V4f Load4(const float* p) {
  V4f v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline V4f Splat(float v) { return V4f{v, v, v, v}; }

/// A B box in every lane.
struct Box4 {
  V4f min_x, min_y, min_z, max_x, max_y, max_z;

  explicit Box4(const geom::Aabb& b)
      : min_x(Splat(b.min.x)),
        min_y(Splat(b.min.y)),
        min_z(Splat(b.min.z)),
        max_x(Splat(b.max.x)),
        max_y(Splat(b.max.y)),
        max_z(Splat(b.max.z)) {}
};

/// The OR of the four lanes: the two 64-bit halves, then their two words.
inline unsigned OrLanes(V4i v) {
  uint64_t halves[2];
  std::memcpy(halves, &v, sizeof(halves));
  const uint64_t pair = halves[0] | halves[1];
  return static_cast<unsigned>(pair | (pair >> 32));
}

/// Bit l of the result is lane l's mask.
inline unsigned Bits(V4i lanes) { return OrLanes(lanes & V4i{1, 2, 4, 8}); }

/// Lanes whose box k + l intersects `b`, with geom::Aabb::Intersects'
/// closed intervals.
inline V4i Overlap4(const ColumnView& c, size_t k, const Box4& b) {
  return (Load4(c.min_x + k) <= b.max_x) & (b.min_x <= Load4(c.max_x + k)) &
         (Load4(c.min_y + k) <= b.max_y) & (b.min_y <= Load4(c.max_y + k)) &
         (Load4(c.min_z + k) <= b.max_z) & (b.min_z <= Load4(c.max_z + k));
}

/// x - y rounded toward -infinity: x - y itself when that is a double, the
/// double just below it otherwise. TwoSum (Knuth) gives the rounding error
/// of the double difference exactly; an infinite difference has a NaN error
/// and passes through.
double SubDown(double x, double y) {
  const double d = x - y;
  const double y_part = d - x;
  const double error = (x - (d - y_part)) + (-y - y_part);
  return error < 0 ? std::nextafter(d, -std::numeric_limits<double>::infinity())
                   : d;
}

/// The first of the `n` (>= 1) ascending values at `v` that is >= `bound`,
/// or v + n: std::lower_bound without its unpredictable branch (Khuong and
/// Morin's branch-free binary search).
const float* LowerBound(const float* v, size_t n, double bound) {
  while (n > 1) {
    const size_t half = n / 2;
    v = static_cast<double>(v[half]) < bound ? v + half : v;
    n -= half;
  }
  return v + (static_cast<double>(*v) < bound);
}

/// Where a node's run starts: its children's boxes in the node columns or,
/// for a leaf, its entries in the leaf columns. A leaf also keeps its entry
/// count and its widest expanded x-extent, rounded up, which sets the start
/// of a probe's x-window.
struct NodeRun {
  uint32_t begin = 0;
  uint32_t count = 0;
  double max_width = 0.0;
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

/// One probe lane's buffers, one slot per tree level: slot d holds the
/// survivors entering depth d (slot 0 the gathered group) and, for the
/// group probed at depth d, one bitset over its members per child.
struct LaneScratch {
  std::vector<std::vector<Probe>> groups;
  std::vector<std::vector<uint64_t>> hit_by;
};

struct TouchContext {
  const JoinInput* a;
  const JoinInput* b;
  const rtree::RTree* tree;
  geom::Aabb root_box;               // the root's MBR + epsilon
  const std::vector<NodeRun>* runs;  // indexed by node id
  ColumnView children;               // node MBRs + epsilon
  ColumnView entries;                // leaf entries + epsilon, by min.x
  const uint32_t* positions;         // A position of each entry slot
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
  int32_t cur = ctx.tree->root();
  // Check the root itself first: B objects outside A's space are dead.
  ++stats->node_tests;
  if (!ctx.root_box.Intersects(bj)) {
    ++stats->filtered;
    return kFiltered;
  }
  const Box4 q(bj);
  for (;;) {
    const rtree::RTree::Node& n = ctx.tree->node(cur);
    if (n.IsLeaf()) return cur;
    const uint32_t begin = (*ctx.runs)[cur].begin;
    const size_t count = n.children.size();
    size_t matched = count;
    for (size_t k = 0; k < count; k += 4) {
      unsigned hits = Bits(Overlap4(ctx.children, begin + k, q));
      if (hits == 0) continue;
      if (matched == count) {
        matched = k + std::countr_zero(hits);
        hits &= hits - 1;
        if (hits == 0) continue;
      }
      // Overlaps several partitions: bucket here. The children after the
      // second match are not counted as tested.
      stats->node_tests += k + std::countr_zero(hits) + 1;
      return cur;
    }
    stats->node_tests += count;
    if (matched == count) {
      // Empty space between the children's partitions: filtered.
      ++stats->filtered;
      return kFiltered;
    }
    cur = n.children[matched];
  }
}

/// Join `group` against the entries of `leaf`.
void ProbeLeaf(const TouchContext& ctx, const NodeRun& leaf,
               const std::vector<Probe>& group, JoinStats* stats,
               std::vector<JoinPair>* pairs) {
  const bool refine = ctx.a->HasGeometry() && ctx.b->HasGeometry();
  const double epsilon = static_cast<double>(ctx.options->epsilon);
  const ColumnView entries = ctx.entries;
  const uint32_t* positions = ctx.positions;
  const size_t padded_end = leaf.begin + RoundUp4(leaf.count);
  uint64_t mbr_tests = 0;
  uint64_t refine_tests = 0;
  for (const Probe& p : group) {
    // x-window: entries sorted by min.x can only intersect p.box if their
    // min.x lies in [p.box.min.x - widest extent, p.box.max.x].
    const double lo = SubDown(p.box.min.x, leaf.max_width);
    const size_t first = LowerBound(entries.min_x + leaf.begin, leaf.count,
                                    lo) -
                         entries.min_x;
    const Box4 q(p.box);
    size_t last = padded_end;
    // The lanes before `first` lie outside the window.
    unsigned keep = (0xFu << (first % 4)) & 0xF;
    for (size_t k = first - first % 4; k < padded_end; k += 4, keep = 0xF) {
      // Bits 0-3: the lanes that hit; bit 4: the last lane starts by
      // p.box.max.x.
      const V4i starts = Load4(entries.min_x + k) <= q.max_x;
      const unsigned lanes = OrLanes((Overlap4(entries, k, q) &
                                      V4i{1, 2, 4, 8}) |
                                     (starts & V4i{0, 0, 0, 16}));
      for (unsigned hits = lanes & keep; hits != 0; hits &= hits - 1) {
        const uint32_t i = positions[k + std::countr_zero(hits)];
        if (refine) {
          ++refine_tests;
          if (geom::CapsuleDistance(ctx.a->segments[i],
                                    ctx.b->segments[p.j]) > epsilon) {
            continue;
          }
        }
        pairs->push_back(JoinPair{ctx.a->ids[i], ctx.b->ids[p.j]});
      }
      // The entries that start by p.box.max.x are a prefix of the run, so
      // a lane that starts later (or padding) ends the window.
      if ((lanes & 16) == 0) {
        last = k + std::countr_one(Bits(starts));
        break;
      }
    }
    mbr_tests += last - first;
  }
  stats->mbr_tests += mbr_tests;
  stats->refine_tests += refine_tests;
}

/// Join `group` against the subtree at `node_id`. `scratch` provides one
/// survivor buffer and one bitset buffer per tree level; `depth` is the
/// first level this call may use.
void ProbeGroup(const TouchContext& ctx, int32_t node_id,
                const std::vector<Probe>& group, LaneScratch* scratch,
                size_t depth, JoinStats* stats, std::vector<JoinPair>* pairs) {
  const rtree::RTree::Node& n = ctx.tree->node(node_id);
  const NodeRun& run = (*ctx.runs)[node_id];
  if (n.IsLeaf()) {
    ProbeLeaf(ctx, run, group, stats, pairs);
    return;
  }

  const ColumnView children = ctx.children;
  const size_t count = n.children.size();
  stats->node_tests += count * group.size();
  // `scratch` is pre-sized to the tree height by the caller; resizing here
  // would invalidate the buffers of shallower recursion levels.
  std::vector<Probe>& survivors = scratch->groups[depth];
  std::vector<uint64_t>& hit_by = scratch->hit_by[depth];
  const size_t words = (group.size() + 63) / 64;
  for (size_t block = 0; block < count; block += kMaskBits) {
    // Each member tests the block's children once; bit m of child c's
    // bitset (words [c * words, (c + 1) * words)) says member m meets it.
    const size_t width = std::min(kMaskBits, count - block);
    hit_by.assign(width * words, 0);
    uint64_t reached = 0;
    for (size_t m = 0; m < group.size(); ++m) {
      const Box4 q(group[m].box);
      uint64_t mask = 0;
      for (size_t k = 0; k < width; k += 4) {
        mask |= uint64_t{Bits(Overlap4(children, run.begin + block + k, q))}
                << k;
      }
      reached |= mask;
      for (; mask != 0; mask &= mask - 1) {
        hit_by[std::countr_zero(mask) * words + m / 64] |= uint64_t{1}
                                                           << (m % 64);
      }
    }
    for (; reached != 0; reached &= reached - 1) {
      const size_t c = std::countr_zero(reached);
      survivors.clear();
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t bits = hit_by[c * words + w]; bits != 0;
             bits &= bits - 1) {
          survivors.push_back(group[w * 64 + std::countr_zero(bits)]);
        }
      }
      ProbeGroup(ctx, n.children[block + c], survivors, scratch, depth + 1,
                 stats, pairs);
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

  // Epsilon-expanded boxes, computed once: each internal node's children
  // (the prune test of both the assignment and the probe phases) and each
  // leaf's entries, sorted by min.x for the local sweep.
  const size_t num_nodes = tree.NumNodes();
  size_t child_slots = 0;
  size_t entry_slots = 0;
  for (size_t id = 0; id < num_nodes; ++id) {
    const rtree::RTree::Node& n = tree.node(static_cast<int32_t>(id));
    if (n.IsLeaf()) {
      entry_slots += RoundUp4(n.entries.size());
    } else {
      child_slots += RoundUp4(n.children.size());
    }
  }
  std::vector<NodeRun> runs(num_nodes);
  BoxColumns children;
  BoxColumns entries;
  std::vector<uint32_t> positions;
  children.Reserve(child_slots);
  entries.Reserve(entry_slots);
  positions.reserve(entry_slots);
  for (size_t id = 0; id < num_nodes; ++id) {
    const rtree::RTree::Node& n = tree.node(static_cast<int32_t>(id));
    NodeRun& run = runs[id];
    if (!n.IsLeaf()) {
      run.begin = static_cast<uint32_t>(children.size());
      for (int32_t child : n.children) {
        children.Append(tree.node(child).bounds.Expanded(options.epsilon));
      }
      children.Pad();
      continue;
    }
    std::vector<uint32_t> order(n.entries.size());
    for (uint32_t k = 0; k < n.entries.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      return n.entries[x].bounds.min.x < n.entries[y].bounds.min.x;
    });
    run.begin = static_cast<uint32_t>(entries.size());
    run.count = static_cast<uint32_t>(order.size());
    for (uint32_t k : order) {
      const geom::Aabb expanded =
          n.entries[k].bounds.Expanded(options.epsilon);
      // max.x - min.x rounded up.
      run.max_width =
          std::max(run.max_width, -SubDown(expanded.min.x, expanded.max.x));
      entries.Append(expanded);
      positions.push_back(static_cast<uint32_t>(n.entries[k].id));
    }
    entries.Pad();
    positions.resize(entries.size(), 0);
  }
  memory.Hold(Bytes(runs) + children.MemoryBytes() + entries.MemoryBytes() +
              Bytes(positions));
  out.stats.build_ns = build.ElapsedNanos();

  // Phase 2: hierarchical assignment of B (with empty-space filtering),
  // one independent descent per object.
  Timer assign;
  const TouchContext ctx{&a,
                         &b,
                         &tree,
                         tree.node(tree.root()).bounds.Expanded(options.epsilon),
                         &runs,
                         ColumnView(children),
                         ColumnView(entries),
                         positions.data(),
                         &options};
  std::unique_ptr<exec::ThreadPool> pool;
  std::vector<int32_t> node_of(b.size());
  memory.Hold(Bytes(node_of));
  const size_t assign_items = (b.size() + kChunk - 1) / kChunk;
  std::vector<JoinStats> assign_stats(assign_items);
  NEURODB_RETURN_NOT_OK(ForEachItem(
      assign_items, TeamSize(assign_items), &pool,
      [&](size_t item, size_t /*lane*/) {
        const size_t end = std::min(b.size(), (item + 1) * kChunk);
        JoinStats stats;
        for (size_t j = item * kChunk; j < end; ++j) {
          node_of[j] = Assign(ctx, b.boxes[j], &stats);
        }
        assign_stats[item] = stats;
      }));
  for (const JoinStats& stats : assign_stats) AddCounters(stats, &out.stats);

  // Counting sort of B by bucket: bucket n is bucketed[offsets[n],
  // offsets[n + 1]), in B order. offsets[n] first counts, then (prefix
  // sums) ends, and the backwards fill leaves it at the bucket's start.
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
  // A group never exceeds kChunk objects, so one reservation bounds every
  // slot for the whole probe.
  const size_t team = TeamSize(items.size());
  const size_t group_capacity = std::min(kChunk, bucketed.size());
  const size_t height = static_cast<size_t>(tree.Height());
  const size_t bitset_words =
      std::min(options.touch_fanout, kMaskBits) * ((group_capacity + 63) / 64);
  std::vector<LaneScratch> scratch(team);
  for (LaneScratch& lane : scratch) {
    lane.groups.resize(height);
    lane.hit_by.resize(height);
    for (std::vector<Probe>& slot : lane.groups) slot.reserve(group_capacity);
    for (std::vector<uint64_t>& slot : lane.hit_by) {
      slot.reserve(bitset_words);
    }
  }
  const uint64_t scratch_bytes =
      team * height *
      (group_capacity * sizeof(Probe) + bitset_words * sizeof(uint64_t));
  memory.Hold(Bytes(items) + Bytes(outputs) + scratch_bytes);
  NEURODB_RETURN_NOT_OK(ForEachItem(
      items.size(), team, &pool, [&](size_t i, size_t lane) {
        const ProbeItem& item = items[i];
        std::vector<Probe>& group = scratch[lane].groups[0];
        group.clear();
        for (uint32_t k = item.begin; k < item.end; ++k) {
          group.push_back(Probe{b.boxes[bucketed[k]], bucketed[k]});
        }
        JoinStats stats;
        ProbeGroup(ctx, item.node, group, &scratch[lane], 1, &stats,
                   &outputs[i].pairs);
        outputs[i].stats = stats;
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
