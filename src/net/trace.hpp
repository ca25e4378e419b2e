// Frame tracing: a tcpdump-style observer for the simulated LAN.
//
// Attach a FrameTrace to a Fabric tap and it records a bounded ring of
// decoded one-line frame summaries ("ARP who-has 10.0.0.100 tell
// 10.0.0.254", "UDP 10.0.0.2:4803 > 255.255.255.255:4803 37B"), which
// tests grep and humans read when debugging protocol interactions.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/scheduler.hpp"

namespace wam::net {

class FrameTrace {
 public:
  struct Record {
    sim::TimePoint time;
    SegmentId segment;
    std::string summary;
  };

  /// Attaching replaces the fabric's existing tap (if any); destroying the
  /// trace clears it, so the fabric may outlive the trace.
  FrameTrace(sim::Scheduler& sched, Fabric& fabric,
             std::size_t capacity = 4096);
  ~FrameTrace();
  FrameTrace(const FrameTrace&) = delete;
  FrameTrace& operator=(const FrameTrace&) = delete;

  [[nodiscard]] const std::deque<Record>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Records whose summary contains `needle`.
  [[nodiscard]] std::vector<Record> find(const std::string& needle) const;
  /// Number of matching records, without materializing them.
  [[nodiscard]] std::size_t count(const std::string& needle) const;
  void clear() { records_.clear(); }
  /// Render all records, one per line, with timestamps.
  [[nodiscard]] std::string dump() const;

  /// One-line decode of a frame (static so tests can use it directly).
  [[nodiscard]] static std::string summarize(const Frame& frame);

 private:
  sim::Scheduler& sched_;
  Fabric& fabric_;
  std::size_t capacity_;
  std::deque<Record> records_;
};

}  // namespace wam::net
