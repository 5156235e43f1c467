#include "storage/disk/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace neurodb {
namespace storage {

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(op + " '" + path + "': " + std::strerror(errno));
}

class PosixFile : public File {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) const override {
    size_t done = 0;
    char* out = static_cast<char*>(buf);
    while (done < n) {
      ssize_t r = ::pread(fd_, out + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread", path_);
      }
      if (r == 0) break;  // EOF
      done += static_cast<size_t>(r);
    }
    return done;
  }

  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    size_t done = 0;
    const char* in = static_cast<const char*>(buf);
    while (done < n) {
      ssize_t w = ::pwrite(fd_, in + done, n - done,
                           static_cast<off_t>(offset + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite", path_);
      }
      done += static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate", path_);
    }
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) return ErrnoStatus("fstat", path_);
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     bool truncate) override {
    int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open", path);
    return std::unique_ptr<File>(new PosixFile(fd, path));
  }

  bool Exists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink", path);
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from + "' -> '" + to);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) {
      return Status::IOError("create_directories '" + path +
                             "': " + ec.message());
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(
      const std::string& path) const override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      if (entry.is_regular_file()) {
        names.push_back(entry.path().filename().string());
      }
    }
    if (ec) {
      return Status::IOError("directory_iterator '" + path +
                             "': " + ec.message());
    }
    return names;
  }
};

class FaultInjectingFile : public File {
 public:
  FaultInjectingFile(std::unique_ptr<File> base, FaultPlan* plan, bool matched)
      : base_(std::move(base)), plan_(plan), matched_(matched) {}

  Result<size_t> ReadAt(uint64_t offset, void* buf, size_t n) const override {
    return base_->ReadAt(offset, buf, n);
  }

  Status WriteAt(uint64_t offset, const void* buf, size_t n) override {
    if (!matched_) return base_->WriteAt(offset, buf, n);
    const FaultPlan::Admission admission = plan_->Admit();
    if (admission == FaultPlan::Admission::kWrite) {
      return base_->WriteAt(offset, buf, n);
    }
    if (admission == FaultPlan::Admission::kCrash) {
      // The crashing write: persist only the torn prefix, then die.
      size_t tear = plan_->tear_bytes < n ? plan_->tear_bytes : 0;
      if (tear > 0) {
        Status s = base_->WriteAt(offset, buf, tear);
        if (!s.ok()) return s;
      }
    }
    return Crash("WriteAt");
  }

  Status Sync() override {
    if (matched_ && plan_->Crashed()) return Crash("Sync");
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override {
    if (matched_ && plan_->Crashed()) return Crash("Truncate");
    return base_->Truncate(size);
  }

  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  static Status Crash(const char* op) {
    return Status::IOError(std::string("fault injection: crashed before ") +
                           op);
  }

  std::unique_ptr<File> base_;
  FaultPlan* plan_;
  bool matched_;
};

}  // namespace

FaultPlan::Admission FaultPlan::Admit() {
  if (Crashed()) return Admission::kCrashed;
  writes_seen.fetch_add(1, std::memory_order_relaxed);
  int64_t budget = write_budget.load(std::memory_order_relaxed);
  while (budget > 0 &&
         !write_budget.compare_exchange_weak(budget, budget - 1,
                                             std::memory_order_relaxed)) {
  }
  if (budget != 0) return Admission::kWrite;  // a unit claimed, or no budget
  return crashed.exchange(true, std::memory_order_relaxed)
             ? Admission::kCrashed
             : Admission::kCrash;
}

FileSystem* DefaultFileSystem() {
  static PosixFileSystem* fs = new PosixFileSystem();
  return fs;
}

Status FaultInjectingFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  bool matched = plan_->path_filter.empty() ||
                 from.find(plan_->path_filter) != std::string::npos ||
                 to.find(plan_->path_filter) != std::string::npos;
  // A rename is atomic, so nothing of the crashing one survives.
  if (matched && plan_->Admit() != FaultPlan::Admission::kWrite) {
    return Status::IOError("fault injection: crashed before Rename");
  }
  return base_->Rename(from, to);
}

Result<std::unique_ptr<File>> FaultInjectingFileSystem::Open(
    const std::string& path, bool truncate) {
  bool matched = plan_->path_filter.empty() ||
                 path.find(plan_->path_filter) != std::string::npos;
  if (matched && plan_->Crashed() && truncate) {
    return Status::IOError("fault injection: crashed before Open(truncate)");
  }
  auto base = base_->Open(path, truncate);
  NEURODB_RETURN_NOT_OK(base.status());
  return std::unique_ptr<File>(
      new FaultInjectingFile(std::move(*base), plan_, matched));
}

}  // namespace storage
}  // namespace neurodb
