#ifndef GTADOC_COMMON_STATUS_H_
#define GTADOC_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace gtadoc {

/// Error codes used across the library. Mirrors the RocksDB/Arrow idiom:
/// functions on hot paths return a Status instead of throwing.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kCorruption = 3,
  kOutOfMemory = 4,
  kIOError = 5,
  kInternal = 6,
  kUnimplemented = 7,
  kAborted = 8,
  kResourceExhausted = 9,
};

/// \brief Outcome of an operation: a code plus, for errors, a message.
///
/// The OK status carries no allocation. Statuses are cheap to copy and move.
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
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable "CODE: message" string for logs and test failures.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Propagate a non-OK status to the caller.
#define GTADOC_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::gtadoc::Status _st = (expr);              \
    if (!_st.ok()) return _st;                  \
  } while (0)

}  // namespace gtadoc

#endif  // GTADOC_COMMON_STATUS_H_
