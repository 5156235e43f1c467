// NeuroDB — File / FileSystem: the byte-level seam under the disk storage
// subsystem.
//
// PageFile and WriteAheadLog talk to this interface, never to POSIX
// directly, so tests can substitute FaultInjectingFileSystem: a
// deterministic wrapper that "crashes" the process after N write
// operations (optionally tearing the Nth write short) and fails every
// write/sync after that point. That is what drives the kill-at-every-
// WAL-record recovery matrix — each crash point is one budget value.

#ifndef NEURODB_STORAGE_DISK_FILE_H_
#define NEURODB_STORAGE_DISK_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace neurodb {
namespace storage {

/// Random-access file handle. Implementations must support concurrent
/// ReadAt calls; writes are single-threaded (the engine serializes all
/// mutation).
class File {
 public:
  virtual ~File() = default;

  /// Read up to `n` bytes at `offset`. Returns the number of bytes read —
  /// short only at end-of-file.
  virtual Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) const = 0;

  /// Write exactly `n` bytes at `offset`, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, const void* buf, size_t n) = 0;

  /// Durably flush all written data to the device (fsync).
  virtual Status Sync() = 0;

  /// Shrink (or grow, zero-filled) the file to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// Current file size in bytes.
  virtual Result<uint64_t> Size() const = 0;
};

/// Factory + minimal directory operations.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Open `path` read-write, creating it if missing. `truncate` empties an
  /// existing file.
  virtual Result<std::unique_ptr<File>> Open(const std::string& path,
                                             bool truncate) = 0;

  virtual bool Exists(const std::string& path) const = 0;
  virtual Status Remove(const std::string& path) = 0;

  /// Atomically replace `to` with `from` (POSIX rename semantics): after a
  /// successful return — or a crash at any point — `to` is either the old
  /// file or the complete new one, never a mix. Open handles on the old
  /// `to` keep reading the replaced (unlinked) inode.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Create a directory (and missing parents). OK if it already exists.
  virtual Status CreateDir(const std::string& path) = 0;

  /// Names (not paths) of regular files in `path`.
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) const = 0;
};

/// The real thing: pread/pwrite/fsync/ftruncate. Process-wide singleton.
FileSystem* DefaultFileSystem();

/// Shared fault state for one FaultInjectingFileSystem. `write_budget` is
/// the number of write operations (WriteAt calls on matching files) allowed
/// before the injected crash; a negative budget disables injection. When
/// the budget runs out the offending write either fails outright or — when
/// `tear_bytes` > 0 — persists only the first `tear_bytes` bytes before
/// failing (a torn record). After the crash every write, sync and truncate
/// on a matching file fails with kIOError; reads keep working so the test
/// can reopen the directory like a restarted process would.
struct FaultPlan {
  std::atomic<int64_t> write_budget{-1};
  /// Bytes of the crashing write that still reach the device (short write).
  size_t tear_bytes = 0;
  /// Only files whose path contains this substring are fault-injected
  /// (empty = all files).
  std::string path_filter;
  std::atomic<bool> crashed{false};
  /// Total write operations observed on matching files (for sizing the
  /// crash matrix: run once with no budget, read this, then iterate).
  std::atomic<uint64_t> writes_seen{0};

  bool Crashed() const { return crashed.load(std::memory_order_relaxed); }

  /// What one matching write (or rename) may do.
  enum class Admission { kWrite, kCrash, kCrashed };
  /// Decides a matching write. Each unit of budget is claimed by a
  /// compare-exchange, so writers that race never share one: exactly
  /// `budget` writes get kWrite, exactly one (the first to find the budget
  /// spent) gets kCrash, and every later one gets kCrashed. Without a
  /// budget every write gets kWrite.
  Admission Admit();

  void Reset(int64_t budget) {
    write_budget.store(budget, std::memory_order_relaxed);
    crashed.store(false, std::memory_order_relaxed);
    writes_seen.store(0, std::memory_order_relaxed);
  }
};

/// FileSystem wrapper implementing FaultPlan. Reads are passed through
/// untouched (surviving data stays readable after the "crash").
class FaultInjectingFileSystem : public FileSystem {
 public:
  FaultInjectingFileSystem(FileSystem* base, FaultPlan* plan)
      : base_(base), plan_(plan) {}

  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     bool truncate) override;
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Status Remove(const std::string& path) override { return base_->Remove(path); }
  /// Counted against the write budget when either path matches the filter.
  /// Atomic under the fault model: it either happens or fails whole — a
  /// crashing rename leaves the destination untouched (tear_bytes does not
  /// apply; there is no partial rename on a POSIX filesystem).
  Status Rename(const std::string& from, const std::string& to) override;
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(
      const std::string& path) const override {
    return base_->ListDir(path);
  }

 private:
  FileSystem* base_;
  FaultPlan* plan_;
};

}  // namespace storage
}  // namespace neurodb

#endif  // NEURODB_STORAGE_DISK_FILE_H_
