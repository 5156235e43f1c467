#include "scout/prefetcher.h"

#include <algorithm>
#include <span>

namespace neurodb {
namespace scout {

using geom::Aabb;
using geom::ElementId;
using geom::Vec3;

const char* PrefetchMethodName(PrefetchMethod method) {
  switch (method) {
    case PrefetchMethod::kNone:
      return "None";
    case PrefetchMethod::kHilbert:
      return "Hilbert";
    case PrefetchMethod::kExtrapolation:
      return "Extrapolation";
    case PrefetchMethod::kScout:
      return "SCOUT";
  }
  return "Unknown";
}

std::vector<PrefetchMethod> AllPrefetchMethods() {
  return {PrefetchMethod::kNone, PrefetchMethod::kHilbert,
          PrefetchMethod::kExtrapolation, PrefetchMethod::kScout};
}

namespace {

/// Prefetch the given page indexes (skipping cached ones) up to the budget.
/// Returns the number of pages actually loaded.
size_t PrefetchPages(const PrefetchContext& ctx,
                     const std::vector<uint32_t>& page_indexes,
                     size_t budget) {
  size_t loaded = 0;
  for (uint32_t page_index : page_indexes) {
    if (loaded >= budget) break;
    storage::PageId id = ctx.index->PageAt(page_index);
    if (ctx.pool->Contains(id)) continue;
    if (ctx.pool->Prefetch(id).ok()) ++loaded;
  }
  return loaded;
}

/// Predict `boxes` in order: prefetch each box's pages within what is left
/// of `budget`, and record the box, with its page list when one was
/// computed, while `predicted` holds fewer than `max_predicted` boxes. The
/// boxes come in groups of `group` (one exit's boxes), and once the budget
/// is spent and `predicted` is full, no further group starts. A box gets
/// its pages only while budget is left; the first such box computes the
/// page lists of it and every box after it in one seed-tree pass
/// (FlatIndex::PagesInRanges) into `pages`. Returns the pages loaded.
size_t PredictBoxes(const PrefetchContext& ctx, const std::vector<Aabb>& boxes,
                    size_t group, size_t budget, size_t max_predicted,
                    std::vector<std::vector<uint32_t>>* pages,
                    std::vector<PredictedBox>* predicted) {
  size_t loaded = 0;
  size_t paged_from = boxes.size();
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (i % group == 0 && loaded >= budget &&
        predicted->size() >= max_predicted) {
      break;
    }
    PredictedBox prediction{boxes[i], std::nullopt};
    if (loaded < budget) {
      if (paged_from == boxes.size()) {
        paged_from = i;
        ctx.index->PagesInRanges(std::span<const Aabb>(boxes).subspan(i),
                                 pages);
      }
      const std::vector<uint32_t>& box_pages = (*pages)[i - paged_from];
      loaded += PrefetchPages(ctx, box_pages, budget - loaded);
      if (predicted->size() < max_predicted) prediction.pages = box_pages;
    }
    if (predicted->size() < max_predicted) {
      predicted->push_back(std::move(prediction));
    }
  }
  return loaded;
}

// ---------------------------------------------------------------------------

class NonePrefetcher : public Prefetcher {
 public:
  const char* Name() const override { return "None"; }
  size_t AfterQuery(const Aabb&, const std::vector<ElementId>&, size_t,
                    obs::Trace*, int) override {
    return 0;
  }
};

// ---------------------------------------------------------------------------

/// Park & Kim style: the data is laid out in Hilbert order, so prefetch the
/// pages that follow (and precede) the pages the current query touched in
/// layout order.
class HilbertPrefetcher : public Prefetcher {
 public:
  explicit HilbertPrefetcher(const PrefetchContext& ctx) : ctx_(ctx) {}

  const char* Name() const override { return "Hilbert"; }

  size_t AfterQuery(const Aabb& query, const std::vector<ElementId>&,
                    size_t budget_pages, obs::Trace*, int) override {
    std::vector<uint32_t> touched = ctx_.index->PagesInRange(query);
    if (touched.empty()) return 0;
    uint32_t lo = touched.front();
    uint32_t hi = touched.back();
    std::vector<uint32_t> wanted;
    wanted.reserve(budget_pages);
    const uint32_t num_pages = static_cast<uint32_t>(ctx_.index->NumPages());
    // Alternate forward/backward from the touched run.
    for (uint32_t d = 1; wanted.size() < budget_pages; ++d) {
      bool any = false;
      if (hi + d < num_pages) {
        wanted.push_back(hi + d);
        any = true;
      }
      if (wanted.size() < budget_pages && lo >= d) {
        wanted.push_back(lo - d);
        any = true;
      }
      if (!any) break;
    }
    return PrefetchPages(ctx_, wanted, budget_pages);
  }

 private:
  PrefetchContext ctx_;
};

// ---------------------------------------------------------------------------

/// Linear extrapolation of the last two query centers.
class ExtrapolationPrefetcher : public Prefetcher {
 public:
  explicit ExtrapolationPrefetcher(const PrefetchContext& ctx) : ctx_(ctx) {}

  const char* Name() const override { return "Extrapolation"; }

  void Reset() override {
    prev_center_.reset();
    predicted_.clear();
  }

  const std::vector<PredictedBox>& PredictedBoxes() const override {
    return predicted_;
  }

  size_t AfterQuery(const Aabb& query, const std::vector<ElementId>&,
                    size_t budget_pages, obs::Trace* trace,
                    int parent_span) override {
    const int predict = trace != nullptr ? trace->Begin("predict", parent_span)
                                         : -1;
    Vec3 center = query.Center();
    size_t loaded = 0;
    predicted_.clear();
    if (prev_center_.has_value()) {
      Vec3 delta = center - *prev_center_;
      float side = query.Extent().x;
      // One and two steps ahead along the motion vector.
      boxes_.clear();
      for (int step = 1; step <= 2; ++step) {
        boxes_.push_back(
            Aabb::Cube(center + delta * static_cast<float>(step), side));
      }
      loaded = PredictBoxes(ctx_, boxes_, boxes_.size(), budget_pages,
                            SIZE_MAX, &pages_, &predicted_);
    }
    prev_center_ = center;
    if (trace != nullptr) trace->End(predict);
    return loaded;
  }

 private:
  PrefetchContext ctx_;
  std::optional<Vec3> prev_center_;
  std::vector<PredictedBox> predicted_;
  /// Scratch for PredictBoxes, kept across steps.
  std::vector<Aabb> boxes_;
  std::vector<std::vector<uint32_t>> pages_;
};

// ---------------------------------------------------------------------------

/// SCOUT: reconstruct structures in the result, prune candidates across the
/// sequence, extrapolate the exits of the surviving candidates.
class ScoutPrefetcher : public Prefetcher {
 public:
  ScoutPrefetcher(const PrefetchContext& ctx, const ScoutOptions& options)
      : ctx_(ctx), options_(options) {}

  const char* Name() const override { return "SCOUT"; }

  void Reset() override {
    candidate_ids_.clear();
    prev_center_.reset();
    last_candidates_ = 0;
    predicted_.clear();
  }

  size_t CandidateCount() const override { return last_candidates_; }

  const std::vector<PredictedBox>& PredictedBoxes() const override {
    return predicted_;
  }

  size_t AfterQuery(const Aabb& query, const std::vector<ElementId>& result,
                    size_t budget_pages, obs::Trace* trace,
                    int parent_span) override {
    // Clear up front: on any early exit PredictedBoxes() must report "no
    // prediction", not the previous step's stale boxes.
    predicted_.clear();
    const int skeleton =
        trace != nullptr ? trace->Begin("skeleton", parent_span) : -1;
    auto structures_or = ExtractStructures(result, *ctx_.resolver, query,
                                           options_.structure);
    if (structures_or.status().IsNotFound()) {
      // Elements inserted after the circuit loaded carry bounds only, so
      // the resolver does not know them: rebuild the skeleton from the
      // loaded elements. Only such steps look their ids up twice.
      std::vector<ElementId> known;
      known.reserve(result.size());
      for (ElementId id : result) {
        if (ctx_.resolver->Lookup(id) != nullptr) known.push_back(id);
      }
      structures_or = ExtractStructures(known, *ctx_.resolver, query,
                                        options_.structure);
    }
    if (trace != nullptr) trace->End(skeleton);
    if (!structures_or.ok()) return 0;
    std::vector<Structure>& structures = structures_or.value();
    const int predict =
        trace != nullptr ? trace->Begin("predict", parent_span) : -1;

    // Candidate pruning (paper Figure 5): the structure being followed must
    // appear in consecutive queries, so intersect the previous candidate
    // set with the structures present now.
    std::vector<const Structure*> candidates;
    if (!candidate_ids_.empty()) {
      for (const Structure& s : structures) {
        if (s.HasExit() && SharesAnId(s.elements, candidate_ids_)) {
          candidates.push_back(&s);
        }
      }
    }
    if (candidates.empty()) {
      // First query of the sequence (or track lost): every structure that
      // leaves the box is a candidate.
      for (const Structure& s : structures) {
        if (s.HasExit()) candidates.push_back(&s);
      }
    }
    last_candidates_ = candidates.size();

    // The next step's candidate set: the candidates' ids, ascending. Each
    // structure's ids are already sorted, so a single candidate (the
    // steady state of following a branch) needs no sort.
    candidate_ids_.clear();
    for (const Structure* s : candidates) {
      candidate_ids_.insert(candidate_ids_.end(), s->elements.begin(),
                            s->elements.end());
    }
    if (candidates.size() > 1) {
      std::sort(candidate_ids_.begin(), candidate_ids_.end());
    }

    // Predict the next query location(s) by extrapolating the candidate
    // exits linearly, one user step beyond the boundary.
    Vec3 center = query.Center();
    float side = query.Extent().x;
    float step = side * 0.5f;
    if (prev_center_.has_value()) {
      double moved = geom::Distance(center, *prev_center_);
      if (moved > 0.0) step = static_cast<float>(moved);
    }
    prev_center_ = center;

    // One box one step beyond each exit (with a single candidate, a second
    // one two steps beyond), in candidate and exit order. Predictions are
    // recorded independently of the page budget: a cached session can
    // still cache an exhausted-budget (or zero-budget) prediction over
    // already-resident pages for free.
    const bool deep = candidates.size() == 1;
    boxes_.clear();
    for (const Structure* s : candidates) {
      for (const StructureExit& exit : s->exits) {
        boxes_.push_back(Aabb::Cube(exit.point + exit.direction * step, side));
        if (deep) {
          boxes_.push_back(
              Aabb::Cube(exit.point + exit.direction * (2.0f * step), side));
        }
      }
    }
    const size_t loaded = PredictBoxes(ctx_, boxes_, deep ? 2 : 1,
                                       budget_pages, kMaxPredicted, &pages_,
                                       &predicted_);
    if (trace != nullptr) trace->End(predict);
    return loaded;
  }

 private:
  /// Bound on PredictedBoxes: pre-populating the result cache with many
  /// speculative boxes would push real step history out of a small cache.
  static constexpr size_t kMaxPredicted = 4;

  /// True when the ascending id lists `a` and `b` have an id in common:
  /// each side skips ahead to the other's current id by binary search.
  static bool SharesAnId(std::span<const ElementId> a,
                         std::span<const ElementId> b) {
    auto i = a.begin();
    auto j = b.begin();
    while (i != a.end() && j != b.end()) {
      if (*i < *j) {
        i = std::lower_bound(i, a.end(), *j);
      } else if (*j < *i) {
        j = std::lower_bound(j, b.end(), *i);
      } else {
        return true;
      }
    }
    return false;
  }

  PrefetchContext ctx_;
  ScoutOptions options_;
  /// The previous step's candidate structures' ids, ascending.
  std::vector<ElementId> candidate_ids_;
  std::optional<Vec3> prev_center_;
  size_t last_candidates_ = 0;
  std::vector<PredictedBox> predicted_;
  /// Scratch for PredictBoxes, kept across steps.
  std::vector<Aabb> boxes_;
  std::vector<std::vector<uint32_t>> pages_;
};

}  // namespace

Result<std::unique_ptr<Prefetcher>> MakePrefetcher(
    PrefetchMethod method, const PrefetchContext& context,
    const ScoutOptions& scout_options) {
  if (method != PrefetchMethod::kNone &&
      (context.index == nullptr || context.pool == nullptr)) {
    return Status::InvalidArgument("MakePrefetcher: null index or pool");
  }
  switch (method) {
    case PrefetchMethod::kNone:
      return std::unique_ptr<Prefetcher>(new NonePrefetcher());
    case PrefetchMethod::kHilbert:
      return std::unique_ptr<Prefetcher>(new HilbertPrefetcher(context));
    case PrefetchMethod::kExtrapolation:
      return std::unique_ptr<Prefetcher>(new ExtrapolationPrefetcher(context));
    case PrefetchMethod::kScout:
      if (context.resolver == nullptr) {
        return Status::InvalidArgument(
            "MakePrefetcher: SCOUT needs a segment resolver");
      }
      return std::unique_ptr<Prefetcher>(
          new ScoutPrefetcher(context, scout_options));
  }
  return Status::InvalidArgument("MakePrefetcher: unknown method");
}

}  // namespace scout
}  // namespace neurodb
