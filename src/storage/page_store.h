// NeuroDB — PageStore: the page-store seam.
//
// The base class is the in-memory implementation ("the simulated disk"):
// it holds all pages of a dataset. storage/disk/ provides DiskPageStore, a
// subclass backed by a real page file with block-level reads, writes and
// fsyncs. Access normally goes through a BufferPool (buffer_pool.h), the
// one page cache: it keeps the handles Read returns, adds prefetch
// tracking and the time model, and only sees the virtual interface, so
// every backend works against either implementation. A store caches
// nothing itself: the in-memory store's handles alias its own pages, and
// a disk store decodes a fresh page on every Read.

#ifndef NEURODB_STORAGE_PAGE_STORE_H_
#define NEURODB_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/epoch.h"
#include "storage/page.h"

namespace neurodb {
namespace storage {

/// Physical I/O performed by a store. The in-memory PageStore never touches
/// a device and reports zeros; DiskPageStore counts real pread/pwrite bytes
/// and fsync calls.
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;

  IoStats& operator+=(const IoStats& o) {
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    fsyncs += o.fsyncs;
    return *this;
  }
  IoStats operator-(const IoStats& o) const {
    return IoStats{bytes_read - o.bytes_read, bytes_written - o.bytes_written,
                   fsyncs - o.fsyncs};
  }
};

/// An append-oriented store of pages ("the disk"). Concrete in-memory
/// implementation and the virtual seam for disk-backed subclasses.
class PageStore {
 public:
  PageStore() = default;
  virtual ~PageStore() = default;

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Allocate a new empty page and return its id.
  virtual PageId Allocate();

  /// Replace the contents of page `id`. The page's `id` field is set.
  virtual Status Write(PageId id, std::vector<geom::SpatialElement> elements);

  /// Read page `id`. The in-memory store's handle aliases its own page
  /// without owning it: the page keeps its address across Allocate and
  /// Write (a Write replaces its elements in place) until Reset or the
  /// store's destruction. A disk store's handle owns a freshly decoded
  /// page. Thread-safe against other Reads.
  virtual Result<std::shared_ptr<const Page>> Read(PageId id) const;

  virtual size_t NumPages() const { return pages_.size(); }

  /// Total serialized bytes across all pages.
  virtual size_t TotalBytes() const;

  /// Physical device I/O (zeros for the in-memory store).
  virtual IoStats io() const { return IoStats{}; }

  /// Persist any staged metadata (page directory, header) to the device.
  /// No-op for the in-memory store.
  virtual Status Flush() { return Status::OK(); }

  /// Version of the physical page layout. Bumped by Reset (compaction) and
  /// BumpEpoch; a BufferPool caching pages of this store is stale — and must
  /// be evicted — whenever the store's epoch moved past the one it cached at.
  /// Monotone across Reset and (for disk stores) reopen.
  Epoch epoch() const { return epoch_.load(std::memory_order_relaxed); }
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_relaxed); }

  /// Advance the epoch to at least `e`; never moves it backwards. Used when
  /// a disk store reopens a file whose header carries a persisted epoch.
  void AdvanceEpochTo(Epoch e) {
    Epoch cur = epoch_.load(std::memory_order_relaxed);
    while (cur < e &&
           !epoch_.compare_exchange_weak(cur, e, std::memory_order_relaxed)) {
    }
  }

  /// Drop every page (compaction rebuilds the layout from scratch) and bump
  /// the epoch — the epoch always moves forward, never back to a value a
  /// pool might have cached at. Any BufferPool over this store must be
  /// evicted before its next access: handles to the in-memory store's old
  /// pages dangle after a Reset.
  virtual void Reset() {
    pages_.clear();
    BumpEpoch();
  }

 private:
  // A deque, so that Allocate never moves a page a handle aliases.
  std::deque<Page> pages_;
  std::atomic<Epoch> epoch_{0};
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_PAGE_STORE_H_
