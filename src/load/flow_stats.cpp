#include "load/flow_stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wam::load {

FlowStats::FlowStats(sim::Duration bucket) : bucket_(bucket) {
  WAM_EXPECTS(bucket > sim::kZero);
}

FlowStats::Bucket& FlowStats::bucket_at(sim::TimePoint t) {
  if (!have_origin_) {
    have_origin_ = true;
    origin_ = t;
  }
  last_seen_ = std::max(last_seen_, t);
  auto idx = static_cast<std::size_t>((t - origin_) / bucket_);
  while (buckets_.size() <= idx) {
    Bucket b;
    // 64-bit index math: narrowing the index through int corrupts bucket
    // starts (and with them failover-window sides) on long high-rate runs.
    b.start = origin_ + bucket_ * static_cast<std::int64_t>(buckets_.size());
    buckets_.push_back(b);
  }
  return buckets_[idx];
}

void FlowStats::on_offered(sim::TimePoint t) {
  ++offered_;
  ++bucket_at(t).offered;
}

void FlowStats::on_retry(sim::TimePoint t) {
  ++retries_;
  ++bucket_at(t).retries;
}

void FlowStats::on_response(sim::TimePoint t, sim::Duration rtt) {
  ++answered_;
  ++bucket_at(t).answered;
  double seconds = sim::to_seconds(rtt);
  rtt_.add(seconds);
  samples_.push_back({t, seconds});
  if (answered_ > 1) {
    longest_gap_ = std::max(longest_gap_, t - last_response_);
  }
  last_response_ = t;
}

void FlowStats::on_lost(sim::TimePoint t) {
  ++lost_;
  ++bucket_at(t).lost;
}

void FlowStats::mark_event(sim::TimePoint at, std::string label) {
  // Sorted insert (stable on ties) so failover_windows() reports in time
  // order even when marks arrive out of order. An exact duplicate (same
  // tick AND same label) is a replay echo of the same fail-over, not a
  // second event: skip it instead of double-reporting.
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), at,
      [](sim::TimePoint t, const Event& e) { return t < e.at; });
  for (auto it = pos; it != events_.begin();) {
    --it;
    if (it->at != at) break;
    if (it->label == label) return;
  }
  events_.insert(pos, {at, std::move(label)});
}

double FlowStats::availability() const {
  if (offered_ == 0) return 1.0;
  return static_cast<double>(answered_) / static_cast<double>(offered_);
}

double FlowStats::effective_downtime_seconds() const {
  if (offered_ == 0 || lost_ == 0) return 0.0;
  double span = sim::to_seconds(last_seen_ - origin_);
  if (span <= 0.0) return 0.0;
  double mean_rate = static_cast<double>(offered_) / span;
  return static_cast<double>(lost_) / mean_rate;
}

std::vector<FailoverWindow> FlowStats::failover_windows(
    sim::Duration window) const {
  std::vector<FailoverWindow> out;
  out.reserve(events_.size());
  for (const auto& event : events_) {
    FailoverWindow w;
    w.label = event.label;
    w.at = event.at;
    w.window = window;
    // Clamp the lower edge at the grid origin: a mark earlier than one
    // window into the run must not produce a negative-time window.
    sim::TimePoint lo = event.at - window;
    if (have_origin_ && lo < origin_) lo = origin_;
    const sim::TimePoint hi = event.at + window;

    // Counter sides come from the bucketized timeline; a bucket belongs to
    // the side its start falls on (bucket width << window in practice).
    for (const auto& b : buckets_) {
      if (b.start >= lo && b.start < event.at) {
        w.offered_before += b.offered;
      } else if (b.start >= event.at && b.start < hi) {
        w.offered_after += b.offered;
        w.lost_after += b.lost;
        w.retries_after += b.retries;
      }
    }

    // Tail percentiles from the time-ordered sample log. samples_ is
    // appended in sim-time order, so the window is a contiguous range.
    auto cmp = [](const Sample& s, sim::TimePoint t) { return s.at < t; };
    auto lo_it = std::lower_bound(samples_.begin(), samples_.end(), lo, cmp);
    auto mid_it =
        std::lower_bound(samples_.begin(), samples_.end(), event.at, cmp);
    auto hi_it = std::lower_bound(samples_.begin(), samples_.end(), hi, cmp);
    sim::Stats before;
    for (auto it = lo_it; it != mid_it; ++it) before.add(it->rtt_seconds);
    sim::Stats after;
    for (auto it = mid_it; it != hi_it; ++it) after.add(it->rtt_seconds);
    w.p99_before = before.empty() ? 0.0 : before.percentile(99.0);
    w.p999_before = before.empty() ? 0.0 : before.percentile(99.9);
    w.p99_after = after.empty() ? 0.0 : after.percentile(99.0);
    w.p999_after = after.empty() ? 0.0 : after.percentile(99.9);
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace wam::load
