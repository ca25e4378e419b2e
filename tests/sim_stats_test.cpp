#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace wam::sim {
namespace {

TEST(Stats, EmptyGuards) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.summary(), "n=0");
  EXPECT_THROW(s.mean(), util::ContractViolation);
  EXPECT_THROW(s.percentile(50), util::ContractViolation);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {2.0, 4.0, 6.0, 8.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_NEAR(s.stddev(), 2.5819888974716, 1e-9);
}

TEST(Stats, SingleSampleStddevZero) {
  Stats s;
  s.add(3.14);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(Stats, AcceptsDurations) {
  Stats s;
  s.add(milliseconds(1500));
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);  // stored in seconds
}

TEST(Stats, SummaryMentionsCount) {
  Stats s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_NE(s.summary().find("n=2"), std::string::npos);
}

TEST(Stats, QuantileIsPercentileOverHundred) {
  Stats s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.5), s.percentile(50));
  EXPECT_DOUBLE_EQ(s.quantile(0.99), s.percentile(99));
  EXPECT_DOUBLE_EQ(s.quantile(0.999), s.percentile(99.9));
  // Tail quantiles land where they should on a 1..1000 ramp.
  EXPECT_NEAR(s.quantile(0.99), 990.0, 1.0);
  EXPECT_NEAR(s.quantile(0.999), 999.0, 1.0);
}

}  // namespace
}  // namespace wam::sim
