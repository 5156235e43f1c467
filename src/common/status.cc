#include "common/status.h"

namespace neurodb {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace neurodb
