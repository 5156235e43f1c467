// NeuroDB — FlatBackend: the FLAT index as a QueryEngine backend.

#ifndef NEURODB_ENGINE_FLAT_BACKEND_H_
#define NEURODB_ENGINE_FLAT_BACKEND_H_

#include <optional>
#include <vector>

#include "engine/backend.h"
#include "flat/flat_index.h"

namespace neurodb {
namespace engine {

/// Adapter wrapping flat::FlatIndex. Owns the crawl-page store; the seed
/// tree and neighborhood graph stay memory resident (FLAT's design). The
/// immutable crawl layout is the base the inherited merge reads a delta
/// version over; Rebuild re-crawls the next base generation onto a reset
/// store.
class FlatBackend : public SpatialBackend {
 public:
  explicit FlatBackend(flat::FlatOptions options = flat::FlatOptions())
      : options_(options) {}

  const char* name() const override { return "FLAT"; }

  BackendStats Stats() const override;

  /// The wrapped index — SCOUT sessions crawl and prefetch through it.
  /// Only valid when has_index(); an engine built empty (and populated
  /// purely through updates) has no crawl layout until the first Compact.
  /// The index object keeps its address across Rebuild.
  const flat::FlatIndex& index() const { return *index_; }

  /// True when a built FLAT crawl layout exists (non-empty base).
  bool has_index() const { return index_.has_value(); }

  const flat::FlatOptions& options() const { return options_; }

 protected:
  Status BuildBase(const geom::ElementVec& elements) override;
  Status ResetBase() override;
  Status BaseRangeQuery(const geom::Aabb& box, storage::PoolSet* pools,
                        ResultVisitor& visitor,
                        RangeStats* stats) const override;
  Status BaseKnnQuery(const geom::Vec3& point, size_t k,
                      storage::PoolSet* pools,
                      std::vector<geom::KnnHit>* hits,
                      RangeStats* stats) const override;

 private:
  flat::FlatOptions options_;
  std::optional<flat::FlatIndex> index_;
};

}  // namespace engine
}  // namespace neurodb

#endif  // NEURODB_ENGINE_FLAT_BACKEND_H_
