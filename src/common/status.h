/// \file status.h
/// \brief Error handling primitives for the bcast library.
///
/// The library does not use exceptions (per the Google C++ style guide).
/// Fallible operations return a `Status`, or a `Result<T>` when they also
/// produce a value. Internal invariant violations abort through the
/// `BCAST_CHECK` family of macros defined in logging.h.

#ifndef BCAST_COMMON_STATUS_H_
#define BCAST_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace bcast {

/// \brief Machine-readable category of a `Status`.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,   ///< Caller supplied a bad parameter.
  kOutOfRange = 2,        ///< An index or value lies outside its domain.
  kFailedPrecondition = 3,///< Object state does not permit the operation.
  kNotFound = 4,          ///< A looked-up entity does not exist.
  kInternal = 6,          ///< An invariant the library maintains was broken.
  kUnimplemented = 7,     ///< A feature is declared but not available.
};

/// \brief Returns the canonical lowercase name of a status code
/// (e.g. "invalid argument").
std::string_view StatusCodeToString(StatusCode code);

/// \brief The result of a fallible operation that produces no value.
///
/// A `Status` is either OK (the default) or carries a code plus a
/// human-readable message. The OK state allocates nothing, so returning
/// `Status::OK()` on the happy path is free.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with \p code and \p message. Use the named
  /// factories (`Status::InvalidArgument` etc.) instead where possible.
  Status(StatusCode code, std::string message);

  /// \name Named constructors, one per error code.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg);
  static Status OutOfRange(std::string msg);
  static Status FailedPrecondition(std::string msg);
  static Status NotFound(std::string msg);
  static Status Internal(std::string msg);
  static Status Unimplemented(std::string msg);
  /// @}

  /// True iff the operation succeeded.
  bool ok() const { return rep_ == nullptr; }

  /// The status code; `kOk` when `ok()`.
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  /// The error message; empty when `ok()`.
  const std::string& message() const;

  /// Renders as `"OK"` or `"<code name>: <message>"`.
  std::string ToString() const;

  /// Two statuses compare equal when both are OK or both carry the same
  /// code and message.
  friend bool operator==(const Status& a, const Status& b);

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  // Null for OK. shared_ptr keeps Status cheaply copyable.
  std::shared_ptr<const Rep> rep_;
};

/// \brief A value of type `T`, or the `Status` explaining why there is none.
///
/// Analogous to `absl::StatusOr<T>` / `arrow::Result<T>`. Accessing the
/// value of an errored result aborts, so callers must test `ok()` first
/// (or use `value_or`).
template <typename T>
class Result {
 public:
  /// Constructs a successful result holding \p value.
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design

  /// Constructs a failed result from a non-OK \p status.
  Result(Status status) : v_(std::move(status)) {}  // NOLINT

  /// True iff a value is present.
  bool ok() const { return std::holds_alternative<T>(v_); }

  /// The error status (`Status::OK()` when a value is present).
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(v_);
  }

  /// \name Value access. Aborts if `!ok()`.
  /// @{
  const T& value() const& {
    AbortIfError();
    return std::get<T>(v_);
  }
  T& value() & {
    AbortIfError();
    return std::get<T>(v_);
  }
  T&& value() && {
    AbortIfError();
    return std::get<T>(std::move(v_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }
  /// @}

  /// Returns the value, or \p fallback when errored.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  void AbortIfError() const;

  std::variant<T, Status> v_;
};

namespace internal {
/// Aborts the process, printing \p status. Used by Result<T>::value().
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal

template <typename T>
void Result<T>::AbortIfError() const {
  if (!ok()) internal::DieOnBadResultAccess(std::get<Status>(v_));
}

/// \brief Propagates a non-OK status to the caller.
#define BCAST_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::bcast::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                       \
  } while (0)

}  // namespace bcast

#endif  // BCAST_COMMON_STATUS_H_
