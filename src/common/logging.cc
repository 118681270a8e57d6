#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bcast {
namespace {

std::atomic<int> g_threshold{static_cast<int>(LogLevel::kWarning)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

// Strips leading directories so log lines stay short.
const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

// Monotonic seconds since the first log statement of the process: wall
// clocks can jump (NTP), and relative timestamps are what one reads when
// correlating log lines with the run-report phase timings.
double SecondsSinceStart() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void SetLogThreshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool ParseLogLevel(std::string_view name, LogLevel* out) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarning;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else if (lower == "fatal") {
    *out = LogLevel::kFatal;
  } else {
    return false;
  }
  return true;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  const bool emit = static_cast<int>(level_) >=
                        g_threshold.load(std::memory_order_relaxed) ||
                    level_ == LogLevel::kFatal;
  if (emit) {
    std::fprintf(stderr, "[%10.4f %s %s:%d] %s\n", SecondsSinceStart(),
                 LevelName(level_), Basename(file_), line_,
                 stream_.str().c_str());
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace bcast
