// FlowStats pins: 64-bit bucket math, grid anchoring at the first recorded
// request, failover-window edge clamping and mark ordering.
#include "load/flow_stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace wam::load {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint(sim::milliseconds(ms));
}

TEST(FlowStats, BucketStartsStay64Bit) {
  // A long high-rate run walks far past 2^31 bucket-width multiples; each
  // bucket start must still land exactly on origin + i * width.
  FlowStats stats(sim::milliseconds(100));
  stats.on_offered(at_ms(0));
  const std::int64_t far_ms = 3'000'000'000;  // ~34.7 simulated days
  stats.on_offered(sim::TimePoint(sim::milliseconds(far_ms)));
  const auto& timeline = stats.timeline();
  ASSERT_FALSE(timeline.empty());
  const auto idx = timeline.size() - 1;
  EXPECT_EQ(timeline[idx].start,
            at_ms(0) + sim::milliseconds(100) * static_cast<std::int64_t>(idx));
  EXPECT_EQ(timeline[idx].offered, 1u);
}

TEST(FlowStats, FailoverWindowClampsAtOrigin) {
  // An event marked less than one window after the origin must clamp its
  // "before" side at the grid origin instead of reaching into negative
  // time (where the int-truncated math used to misfile buckets).
  FlowStats stats(sim::milliseconds(100));
  for (int i = 0; i < 10; ++i) {  // the first offer anchors the grid at 0
    stats.on_offered(at_ms(i * 100));
    stats.on_response(at_ms(i * 100), sim::milliseconds(2));
  }
  stats.mark_event(at_ms(300), "early fault");
  auto windows = stats.failover_windows(sim::seconds(5.0));
  ASSERT_EQ(windows.size(), 1u);
  // Only buckets in [0, 300) count as "before": 3 of them.
  EXPECT_EQ(windows.front().offered_before, 3u);
  EXPECT_EQ(windows.front().offered_after, 7u);
}

TEST(FlowStats, FirstOfferPinsTheGrid) {
  FlowStats stats(sim::milliseconds(100));
  stats.on_offered(at_ms(500));
  stats.on_offered(at_ms(730));
  ASSERT_EQ(stats.timeline().size(), 3u);
  EXPECT_EQ(stats.timeline()[0].start, at_ms(500));
  EXPECT_EQ(stats.timeline()[2].start, at_ms(700));
  EXPECT_EQ(stats.timeline()[0].offered, 1u);
  EXPECT_EQ(stats.timeline()[2].offered, 1u);
}

TEST(FlowStats, MarkEventBeforeFirstOfferIsWellDefined) {
  // A fail-over can be marked before the first request anchors the grid
  // (the scenario wires its fault hooks before the generator starts); the
  // mark must not disturb the grid and must still clamp at the origin.
  FlowStats stats(sim::milliseconds(100));
  stats.mark_event(at_ms(300), "early fault");
  EXPECT_TRUE(stats.timeline().empty());
  for (int i = 0; i < 10; ++i) {
    stats.on_offered(at_ms(i * 100));
    stats.on_response(at_ms(i * 100), sim::milliseconds(2));
  }
  EXPECT_EQ(stats.timeline()[0].start, at_ms(0));
  auto windows = stats.failover_windows(sim::seconds(5.0));
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows.front().offered_before, 3u);
  EXPECT_EQ(windows.front().offered_after, 7u);
}

TEST(FlowStats, MarkEventsSortStablyAndSkipExactDuplicates) {
  FlowStats stats(sim::milliseconds(100));
  stats.on_offered(at_ms(10));
  stats.mark_event(at_ms(500), "b");
  stats.mark_event(at_ms(200), "a");   // out of order: sorted in front
  stats.mark_event(at_ms(500), "b");   // exact duplicate: skipped
  stats.mark_event(at_ms(500), "c");   // same tick, new label: kept after b
  auto windows = stats.failover_windows(sim::seconds(1.0));
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].label, "a");
  EXPECT_EQ(windows[1].label, "b");
  EXPECT_EQ(windows[2].label, "c");
}

}  // namespace
}  // namespace wam::load
