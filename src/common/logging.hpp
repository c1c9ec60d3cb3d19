// Lightweight component-tagged logging.
//
// The simulator is silent by default (benchmarks run millions of events); a
// test or example can raise the level to trace protocol behaviour. Log lines
// are routed through a sink so tests can capture them.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

namespace blackdp::common {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] std::string_view toString(LogLevel level);

/// Global logging configuration. Level and sink are set once at startup from
/// the main thread; emission itself is serialised so worker-pool threads
/// (sim/thread_pool.hpp) cannot interleave lines.
class Logging {
 public:
  using Sink = std::function<void(LogLevel, std::string_view component,
                                  std::string_view message)>;

  static LogLevel level() { return level_; }
  static void setLevel(LogLevel level) { level_ = level; }

  /// The installed sink; nullptr when the stderr default is active.
  static const Sink& sink() { return sink_; }

  /// Replaces the sink (default writes to stderr). Pass nullptr to restore
  /// the default.
  static void setSink(Sink sink);

  static void emit(LogLevel level, std::string_view component,
                   std::string_view message);

 private:
  static LogLevel level_;
  static Sink sink_;
};

/// RAII save/restore of the global level + sink, so a test that installs a
/// capture sink (or raises the level) cannot leak it into later tests when
/// it fails or returns early.
class ScopedLogging {
 public:
  ScopedLogging() : level_{Logging::level()}, sink_{Logging::sink()} {}
  /// Convenience: save, then immediately apply the given configuration.
  ScopedLogging(LogLevel level, Logging::Sink sink) : ScopedLogging() {
    Logging::setLevel(level);
    Logging::setSink(std::move(sink));
  }
  ~ScopedLogging() {
    Logging::setLevel(level_);
    Logging::setSink(std::move(sink_));
  }

  ScopedLogging(const ScopedLogging&) = delete;
  ScopedLogging& operator=(const ScopedLogging&) = delete;

 private:
  LogLevel level_;
  Logging::Sink sink_;
};

namespace detail {
/// Stream-style log statement builder; emits on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_{level}, component_{component} {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { Logging::emit(level_, component_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace blackdp::common

// Usage: BDP_LOG(kDebug, "aodv") << "rreq id=" << id;
#define BDP_LOG(lvl, component)                                        \
  if (::blackdp::common::Logging::level() <=                           \
      ::blackdp::common::LogLevel::lvl)                                \
  ::blackdp::common::detail::LogLine(::blackdp::common::LogLevel::lvl, \
                                     component)
