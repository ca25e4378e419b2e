// Simulation-aware logging.
//
// Log lines carry the virtual timestamp and a component tag ("gcs/s3",
// "wam/s1", "net"). Records are kept in an in-memory ring so tests can
// assert on protocol activity, and optionally echoed to stderr when
// WAM_LOG=1 (or set_echo(true)) for debugging runs. A Log may be built
// with a minimum level (scenario worlds record warn and above); WAM_LOG=1
// overrides it, so a debugging run records and echoes every level.
#pragma once

#include <cstdarg>
#include <deque>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace wam::sim {

class Scheduler;

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError };

const char* log_level_name(LogLevel level);

struct LogRecord {
  TimePoint time;
  LogLevel level;
  std::string component;
  std::string message;

  [[nodiscard]] std::string render() const;
};

/// One Log per simulation; components hold (Log*, tag) pairs.
class Log {
 public:
  explicit Log(const Scheduler& sched, std::size_t capacity = 65536)
      : Log(sched, LogLevel::kTrace, capacity) {}
  Log(const Scheduler& sched, LogLevel min_level,
      std::size_t capacity = 65536)
      : sched_(&sched), capacity_(capacity), min_level_(min_level) {
    // Environment opt-in for interactive debugging: every level, echoed.
    if (const char* e = ::getenv("WAM_LOG"); e && e[0] == '1') {
      echo_ = true;
      min_level_ = LogLevel::kTrace;
    }
  }

  void set_echo(bool on) { echo_ = on; }
  void set_min_level(LogLevel level) { min_level_ = level; }
  [[nodiscard]] LogLevel min_level() const { return min_level_; }
  /// Threshold check, exposed so Logger can skip vsnprintf formatting for
  /// records that would be discarded anyway (hot in Trace-heavy runs).
  [[nodiscard]] bool would_log(LogLevel level) const {
    return level >= min_level_;
  }

  void write(LogLevel level, std::string component, std::string message);

  [[nodiscard]] const std::deque<LogRecord>& records() const { return records_; }
  /// Records whose component starts with `prefix` and message contains `needle`.
  [[nodiscard]] std::vector<LogRecord> find(const std::string& prefix,
                                            const std::string& needle = "") const;
  [[nodiscard]] std::size_t count(const std::string& prefix,
                                  const std::string& needle = "") const;
  void clear() { records_.clear(); }

 private:
  const Scheduler* sched_;
  std::size_t capacity_;
  bool echo_ = false;
  LogLevel min_level_ = LogLevel::kTrace;
  std::deque<LogRecord> records_;
};

/// Lightweight facade bound to one component tag.
class Logger {
 public:
  Logger() = default;
  Logger(Log* log, std::string component)
      : log_(log), component_(std::move(component)) {}

  void trace(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void debug(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void info(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void warn(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));
  void error(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));

  [[nodiscard]] bool enabled() const { return log_ != nullptr; }
  /// Whether a record at `level` would be kept. Call sites whose arguments
  /// allocate (to_string()) check this first so dropped records cost nothing.
  [[nodiscard]] bool would_log(LogLevel level) const {
    return log_ != nullptr && log_->would_log(level);
  }
  [[nodiscard]] const std::string& component() const { return component_; }

 private:
  void vwrite(LogLevel level, const char* fmt, std::va_list ap) const;

  Log* log_ = nullptr;
  std::string component_;
};

}  // namespace wam::sim
