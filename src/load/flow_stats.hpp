// Request-weighted availability accounting for the open-loop load harness.
//
// The paper reports fail-over cost as one number: the probe client's
// interruption gap. Under heavy traffic the operator cares about a
// different quantity — what the outage COST in requests. FlowStats
// aggregates every request the generator offered into:
//   * request-weighted availability (answered / offered),
//   * effective downtime: lost requests divided by the mean offered rate,
//     i.e. seconds of full-outage-equivalent at the run's own load —
//     downtime weighted by offered load rather than wall time,
//   * a bucketized timeline (offered/answered/lost/retries per bucket),
//   * response-time tails: p99/p999 in a window before vs after each
//     marked fail-over event — the latency gap a takeover causes even for
//     requests that were eventually answered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace wam::load {

/// Before/after view around one marked fail-over event.
struct FailoverWindow {
  std::string label;
  sim::TimePoint at{};
  sim::Duration window = sim::kZero;
  std::uint64_t offered_before = 0;
  std::uint64_t offered_after = 0;
  std::uint64_t lost_after = 0;
  std::uint64_t retries_after = 0;
  double p99_before = 0;   // response-time percentiles, seconds
  double p99_after = 0;
  double p999_before = 0;
  double p999_after = 0;
  [[nodiscard]] double p99_gap() const { return p99_after - p99_before; }
  [[nodiscard]] double p999_gap() const { return p999_after - p999_before; }
};

class FlowStats {
 public:
  explicit FlowStats(sim::Duration bucket = sim::milliseconds(100));

  // ---- recording (generator-facing) ----
  /// A new logical request was offered (first attempt sent).
  void on_offered(sim::TimePoint t);
  /// A timed-out request was re-sent (does not add to offered).
  void on_retry(sim::TimePoint t);
  /// A logical request was answered `rtt` after its FIRST attempt.
  void on_response(sim::TimePoint t, sim::Duration rtt);
  /// A logical request exhausted its retries unanswered.
  void on_lost(sim::TimePoint t);
  /// Mark a fail-over (or any) event for windowed before/after reporting.
  void mark_event(sim::TimePoint at, std::string label);

  // ---- aggregate results ----
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t answered() const { return answered_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Request-weighted availability: answered / offered (1.0 when idle).
  [[nodiscard]] double availability() const;
  /// lost / mean offered rate: seconds of full outage this loss is
  /// equivalent to at the run's own load. 0 when nothing was offered.
  [[nodiscard]] double effective_downtime_seconds() const;
  [[nodiscard]] sim::Duration longest_response_gap() const {
    return longest_gap_;
  }
  /// Response times (seconds) of every answered request; exposes the
  /// arbitrary-quantile API.
  [[nodiscard]] const sim::Stats& response_times() const { return rtt_; }

  struct Bucket {
    sim::TimePoint start{};
    std::uint64_t offered = 0;
    std::uint64_t answered = 0;
    std::uint64_t lost = 0;
    std::uint64_t retries = 0;
    [[nodiscard]] double availability() const {
      return offered == 0 ? 1.0
                          : static_cast<double>(answered) /
                                static_cast<double>(offered);
    }
  };
  [[nodiscard]] const std::vector<Bucket>& timeline() const {
    return buckets_;
  }
  [[nodiscard]] sim::Duration bucket_width() const { return bucket_; }

  /// Before/after accounting around every marked event. `window` bounds
  /// each side (e.g. 5 s before the fault vs 5 s after).
  [[nodiscard]] std::vector<FailoverWindow> failover_windows(
      sim::Duration window) const;

 private:
  Bucket& bucket_at(sim::TimePoint t);

  sim::Duration bucket_;
  bool have_origin_ = false;
  sim::TimePoint origin_{};
  sim::TimePoint last_seen_{};
  std::uint64_t offered_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t retries_ = 0;
  sim::TimePoint last_response_{};
  sim::Duration longest_gap_ = sim::kZero;
  std::vector<Bucket> buckets_;
  sim::Stats rtt_;
  struct Sample {
    sim::TimePoint at;
    double rtt_seconds;
  };
  std::vector<Sample> samples_;  // time-ordered (sim time is monotonic)
  struct Event {
    sim::TimePoint at;
    std::string label;
  };
  std::vector<Event> events_;
};

}  // namespace wam::load
