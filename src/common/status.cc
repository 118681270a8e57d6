#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace bcast {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "invalid argument";
    case StatusCode::kOutOfRange:
      return "out of range";
    case StatusCode::kFailedPrecondition:
      return "failed precondition";
    case StatusCode::kNotFound:
      return "not found";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnimplemented:
      return "unimplemented";
  }
  return "unknown";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    rep_ = std::make_shared<const Rep>(Rep{code, std::move(message)});
  }
}

Status Status::InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
Status Status::OutOfRange(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
Status Status::FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
Status Status::NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
Status Status::Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
Status Status::Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}

const std::string& Status::message() const {
  static const std::string kEmpty;
  return rep_ ? rep_->message : kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  if (!message().empty()) {
    out += ": ";
    out += message();
  }
  return out;
}

bool operator==(const Status& a, const Status& b) {
  if (a.ok() || b.ok()) return a.ok() == b.ok();
  return a.code() == b.code() && a.message() == b.message();
}

namespace internal {

void DieOnBadResultAccess(const Status& status) {
  std::fprintf(stderr, "bcast: accessed value of errored Result: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace bcast
