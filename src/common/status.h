// NeuroDB — Status: error model used across the library.
//
// The library never throws exceptions (Arrow/RocksDB idiom); fallible
// operations return a Status, and value-returning fallible operations return
// a Result<T> (see result.h).

#ifndef NEURODB_COMMON_STATUS_H_
#define NEURODB_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace neurodb {

/// Error category for a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kCorruption = 4,
  kResourceExhausted = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIOError = 8,
  kAlreadyExists = 9,
  kFailedPrecondition = 10,
};

/// Human-readable name of a StatusCode ("OK", "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the
/// message is only allocated on error paths).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  /// The request is valid, but the engine's state no longer allows it.
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagate a non-OK Status to the caller.
#define NEURODB_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::neurodb::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace neurodb

#endif  // NEURODB_COMMON_STATUS_H_
