#include "common/status.h"

namespace gtadoc {

namespace {
const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kOutOfMemory:
      return "OutOfMemory";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!msg_.empty()) {
    out += ": ";
    out += msg_;
  }
  return out;
}

}  // namespace gtadoc
