// NeuroDB — Epoch: the storage-wide version counter behind mutable data.
//
// The engine's read path is built over an immutable base (pages laid out at
// build time) plus an in-memory delta (engine/delta_index.h). Every batch of
// updates advances a monotonically increasing Epoch; queries, sessions and
// cache entries are stamped with the epoch they answered at, so a consumer
// can tell exactly which version of the circuit a result describes — and a
// cache can tell which of its entries predate a mutation.

#ifndef NEURODB_STORAGE_EPOCH_H_
#define NEURODB_STORAGE_EPOCH_H_

#include <cstdint>

namespace neurodb {
namespace storage {

/// Monotonically increasing data version. 0 is the freshly built (never
/// mutated) state; every applied update batch bumps it by one. Compaction
/// bumps it too — results are unchanged but the physical page layout is new.
using Epoch = uint64_t;

/// Sentinel read epoch: "the most recent state". A query at kLatestEpoch
/// reads the newest published delta version, pinned when it starts.
inline constexpr Epoch kLatestEpoch = ~static_cast<Epoch>(0);

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_EPOCH_H_
