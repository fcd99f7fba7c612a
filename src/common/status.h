// Status: lightweight error propagation used across all hdov modules.
//
// The library does not throw exceptions across module boundaries; every
// fallible operation returns a Status (or a Result<T>, see result.h).
// The design follows the RocksDB/Arrow convention: a cheap, copyable value
// carrying an error code and, when not OK, a human-readable message.

#ifndef HDOV_COMMON_STATUS_H_
#define HDOV_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace hdov {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kCorruption,
  kIoError,
  kOutOfRange,
  kAlreadyExists,
  kFailedPrecondition,
  kInternal,
};

// Returns a stable, human-readable name for a code ("OK", "IOError", ...).
std::string_view StatusCodeName(StatusCode code);

class Status {
 public:
  // Default-constructed Status is OK. OK carries no allocation.
  Status() = default;

  Status(const Status& other)
      : code_(other.code_),
        message_(other.message_ ? new std::string(*other.message_) : nullptr) {}
  Status& operator=(const Status& other) {
    if (this != &other) {
      code_ = other.code_;
      message_.reset(other.message_ ? new std::string(*other.message_)
                                    : nullptr);
    }
    return *this;
  }
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  static Status IoError(std::string_view msg) {
    return Status(StatusCode::kIoError, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(StatusCode::kOutOfRange, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(StatusCode::kAlreadyExists, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(StatusCode::kFailedPrecondition, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(StatusCode::kInternal, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }

  // Message without the code prefix; empty for OK.
  std::string_view message() const {
    return message_ ? std::string_view(*message_) : std::string_view();
  }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string_view msg)
      : code_(code), message_(new std::string(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::unique_ptr<std::string> message_;
};

// Propagates a non-OK status to the caller. Usable only in functions that
// themselves return Status.
#define HDOV_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::hdov::Status _hdov_status = (expr);   \
    if (!_hdov_status.ok()) {               \
      return _hdov_status;                  \
    }                                       \
  } while (false)

}  // namespace hdov

#endif  // HDOV_COMMON_STATUS_H_
