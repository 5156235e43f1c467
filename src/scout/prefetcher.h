// NeuroDB — prefetchers for moving range query sequences.
//
// Implements SCOUT (content-aware prediction + cross-query candidate
// pruning, paper Section 3.1) and the baselines the demo lets the audience
// compare against (Section 3.2): no prefetching, Hilbert-order prefetching
// (Park & Kim style), and linear extrapolation of query centers.
//
// A prefetcher observes each executed query and may warm the buffer pool
// with up to `budget_pages` pages — the number of page reads that fit into
// the user's think time between queries.

#ifndef NEURODB_SCOUT_PREFETCHER_H_
#define NEURODB_SCOUT_PREFETCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "flat/flat_index.h"
#include "geom/aabb.h"
#include "neuro/circuit.h"
#include "obs/trace.h"
#include "scout/structure.h"
#include "storage/buffer_pool.h"

namespace neurodb {
namespace scout {

/// Prefetching strategies available to the walkthrough session.
enum class PrefetchMethod {
  kNone,
  kHilbert,
  kExtrapolation,
  kScout,
};

/// Human-readable method name.
const char* PrefetchMethodName(PrefetchMethod method);

/// All methods in bench reporting order.
std::vector<PrefetchMethod> AllPrefetchMethods();

/// SCOUT tuning. Once a single candidate structure remains, SCOUT looks
/// two steps ahead along each of its exits.
struct ScoutOptions {
  /// Structure connectivity tolerance (µm).
  StructureOptions structure;
};

/// Wiring shared by all prefetchers.
struct PrefetchContext {
  const flat::FlatIndex* index = nullptr;
  storage::BufferPool* pool = nullptr;
  /// Needed by SCOUT (skeleton reconstruction); others ignore it.
  const neuro::SegmentResolver* resolver = nullptr;
};

/// Where a prefetcher expects a next query box to land.
struct PredictedBox {
  geom::Aabb box;
  /// The box's FLAT page indexes (FlatIndex::PagesInRange), when the
  /// prefetcher computed them to prefetch the box; nullopt when it had no
  /// budget left for the box.
  std::optional<std::vector<uint32_t>> pages;
};

/// Interface: one instance drives one query sequence.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  virtual const char* Name() const = 0;

  /// Forget all sequence state (start of a new walkthrough).
  virtual void Reset() {}

  /// Observe executed query `query` with result `result`; issue up to
  /// `budget_pages` pool prefetches. Returns pages actually prefetched.
  /// With a `trace`, the work is recorded as child spans of `parent_span`:
  /// `skeleton` (SCOUT's structure rebuild) and `predict` (SCOUT's
  /// candidate pruning, and the box predictors' boxes and prefetches). A
  /// null trace reads no clock.
  virtual size_t AfterQuery(const geom::Aabb& query,
                            const std::vector<geom::ElementId>& result,
                            size_t budget_pages, obs::Trace* trace = nullptr,
                            int parent_span = 0) = 0;

  /// Number of candidate structures SCOUT is still tracking (paper Figure
  /// 5's shrinking candidate set); other methods report 0.
  virtual size_t CandidateCount() const { return 0; }

  /// Where the prefetcher believes the *next* query boxes land, most
  /// likely first, as computed by the latest AfterQuery call. Box-predicting
  /// methods (extrapolation, SCOUT) report a few boxes; page-order methods
  /// (Hilbert) and kNone report none. A cached session records these boxes
  /// as result-cache entries during think time, so a correctly predicted
  /// next step is answered without any demand I/O at all.
  virtual const std::vector<PredictedBox>& PredictedBoxes() const {
    static const std::vector<PredictedBox> kNone;
    return kNone;
  }
};

/// Construct a prefetcher. SCOUT requires context.resolver != nullptr.
Result<std::unique_ptr<Prefetcher>> MakePrefetcher(
    PrefetchMethod method, const PrefetchContext& context,
    const ScoutOptions& scout_options = ScoutOptions());

}  // namespace scout
}  // namespace neurodb

#endif  // NEURODB_SCOUT_PREFETCHER_H_
