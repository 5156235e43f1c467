#include "engine/delta_index.h"

namespace neurodb {
namespace engine {

geom::ElementVec DeltaIndex::ApplyTo(const geom::ElementVec& base) const {
  geom::ElementVec merged;
  merged.reserve(base.size() + inserts_.size());
  // Collecting cannot fail.
  (void)ForEachLive(base, [&](const geom::SpatialElement& e) {
    merged.push_back(e);
    return Status::OK();
  });
  return merged;
}

}  // namespace engine
}  // namespace neurodb
