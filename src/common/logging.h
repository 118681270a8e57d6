/// \file logging.h
/// \brief Minimal leveled logging and check macros.
///
/// `BCAST_CHECK*` macros document and enforce internal invariants: they are
/// active in all build types (the simulation must never silently produce
/// wrong numbers) and abort with a source location on failure. Use `Status`
/// returns, not checks, for errors a caller can trigger.

#ifndef BCAST_COMMON_LOGGING_H_
#define BCAST_COMMON_LOGGING_H_

#include <sstream>
#include <string>
#include <string_view>

namespace bcast {

/// \brief Severity of a log statement.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// \brief Sets the minimum level that is actually emitted
/// (default: kWarning, so library code is quiet under test).
void SetLogThreshold(LogLevel level);

/// \brief Parses a case-insensitive level name ("debug", "info", "warn",
/// "warning", "error", "fatal") into \p out. Returns false — leaving
/// \p out untouched — on anything else. Backs the tools' `--log_level`.
bool ParseLogLevel(std::string_view name, LogLevel* out);

namespace internal {

/// Stream-style log statement collector; emits on destruction.
/// `kFatal` messages abort the process after emission.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace bcast

/// Emits a log statement: `BCAST_LOG(kInfo) << "x = " << x;`
#define BCAST_LOG(severity)                                              \
  ::bcast::internal::LogMessage(::bcast::LogLevel::severity, __FILE__, \
                                __LINE__)                                \
      .stream()

/// Aborts with a message when \p cond is false.
#define BCAST_CHECK(cond)                                       \
  if (!(cond))                                                  \
  BCAST_LOG(kFatal) << "Check failed: " #cond " "

/// Binary comparison checks that print both operands on failure.
#define BCAST_CHECK_OP(op, a, b)                                          \
  if (!((a)op(b)))                                                        \
  BCAST_LOG(kFatal) << "Check failed: " #a " " #op " " #b " (" << (a)     \
                    << " vs " << (b) << ") "

#define BCAST_CHECK_EQ(a, b) BCAST_CHECK_OP(==, a, b)
#define BCAST_CHECK_NE(a, b) BCAST_CHECK_OP(!=, a, b)
#define BCAST_CHECK_LT(a, b) BCAST_CHECK_OP(<, a, b)
#define BCAST_CHECK_LE(a, b) BCAST_CHECK_OP(<=, a, b)
#define BCAST_CHECK_GT(a, b) BCAST_CHECK_OP(>, a, b)
#define BCAST_CHECK_GE(a, b) BCAST_CHECK_OP(>=, a, b)

#endif  // BCAST_COMMON_LOGGING_H_
