#include "sim/scheduler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace wam::sim {

void Scheduler::run_until(TimePoint deadline) {
  while (!heap_.empty()) {
    // Skip over cancelled events without advancing time.
    if (!entry_live(heap_.front())) {
      pop_entry();
      continue;
    }
    if (heap_.front().when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

void Scheduler::compact() {
  auto stale = [this](const Entry& e) { return !entry_live(e); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

std::string format_duration(Duration d) {
  char buf[64];
  auto ns = d.count();
  if (ns >= 1000000000 || ns <= -1000000000) {
    std::snprintf(buf, sizeof(buf), "%.3fs", to_seconds(d));
  } else if (ns >= 1000000 || ns <= -1000000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", to_millis(d));
  } else if (ns >= 1000 || ns <= -1000) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "us", ns / 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "ns", ns);
  }
  return buf;
}

std::string format_time(TimePoint t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "t=%.6fs", to_seconds(t.time_since_epoch()));
  return buf;
}

}  // namespace wam::sim
