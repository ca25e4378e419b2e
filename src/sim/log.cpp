#include "sim/log.hpp"

#include <cstdio>
#include <cstdlib>

#include "sim/scheduler.hpp"

namespace wam::sim {

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::string LogRecord::render() const {
  char head[96];
  std::snprintf(head, sizeof(head), "%12.6f %-5s [%s] ",
                to_seconds(time.time_since_epoch()), log_level_name(level),
                component.c_str());
  return std::string(head) + message;
}

void Log::write(LogLevel level, std::string component, std::string message) {
  if (level < min_level_) return;
  LogRecord rec{sched_->now(), level, std::move(component), std::move(message)};
  if (echo_) std::fprintf(stderr, "%s\n", rec.render().c_str());
  records_.push_back(std::move(rec));
  if (records_.size() > capacity_) records_.pop_front();
}

std::vector<LogRecord> Log::find(const std::string& prefix,
                                 const std::string& needle) const {
  std::vector<LogRecord> out;
  for (const auto& r : records_) {
    if (r.component.rfind(prefix, 0) != 0) continue;
    if (!needle.empty() && r.message.find(needle) == std::string::npos) continue;
    out.push_back(r);
  }
  return out;
}

std::size_t Log::count(const std::string& prefix,
                       const std::string& needle) const {
  // Counted in place: find() would materialize (and copy) every matching
  // record just to take .size().
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.component.rfind(prefix, 0) != 0) continue;
    if (!needle.empty() && r.message.find(needle) == std::string::npos) continue;
    ++n;
  }
  return n;
}

void Logger::vwrite(LogLevel level, const char* fmt, std::va_list ap) const {
  if (!would_log(level)) return;  // skip formatting entirely
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  log_->write(level, component_, buf);
}

#define WAM_LOG_IMPL(method, level)                 \
  void Logger::method(const char* fmt, ...) const { \
    if (!would_log(level)) return;                  \
    std::va_list ap;                                \
    va_start(ap, fmt);                              \
    vwrite(level, fmt, ap);                         \
    va_end(ap);                                     \
  }

WAM_LOG_IMPL(trace, LogLevel::kTrace)
WAM_LOG_IMPL(debug, LogLevel::kDebug)
WAM_LOG_IMPL(info, LogLevel::kInfo)
WAM_LOG_IMPL(warn, LogLevel::kWarn)
WAM_LOG_IMPL(error, LogLevel::kError)

#undef WAM_LOG_IMPL

}  // namespace wam::sim
