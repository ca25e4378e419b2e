// Full-stack integration: Figure 3's web cluster with real ARP, a real
// router, echo servers and the measuring client.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/cluster_scenario.hpp"

namespace wam::apps {
namespace {

TEST(IntegrationCluster, ClientIsServedThroughRouter) {
  ClusterScenario s(ClusterOptions{});
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
  s.start_probe(0);
  s.run(sim::seconds(1.0));
  EXPECT_GT(s.probe().responses().size(), 50u);
  EXPECT_FALSE(s.probe().current_server().empty());
}

TEST(IntegrationCluster, FailoverServesFromAnotherServer) {
  ClusterScenario s(ClusterOptions{});
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.start_probe(0);
  s.run(sim::seconds(1.0));
  int victim = s.owner_of(0);
  ASSERT_GE(victim, 0);
  auto before = s.probe().current_server();

  s.disconnect_server(victim);
  s.run(sim::seconds(6.0));  // tuned timeouts: ~2.5 s interruption

  auto after = s.probe().current_server();
  EXPECT_NE(after, before);
  EXPECT_FALSE(after.empty());
  auto gaps = s.probe().interruptions();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].server_before, before);
  EXPECT_EQ(gaps[0].server_after, after);
}

TEST(IntegrationCluster, TunedInterruptionWithinPaperRange) {
  ClusterOptions opt;
  opt.gcs = gcs::Config::spread_tuned();
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.start_probe(0);
  s.run(sim::seconds(1.0));
  int victim = s.owner_of(0);
  s.disconnect_server(victim);
  s.run(sim::seconds(8.0));
  auto gaps = s.probe().interruptions();
  ASSERT_EQ(gaps.size(), 1u);
  double secs = sim::to_seconds(gaps[0].length());
  // Table 1 discussion: detection 0.6-1 s + discovery 1.4 s + install and
  // ARP spoof overhead.
  EXPECT_GE(secs, 1.8);
  EXPECT_LE(secs, 3.0);
}

TEST(IntegrationCluster, DefaultInterruptionWithinPaperRange) {
  ClusterOptions opt;
  opt.gcs = gcs::Config::spread_default();
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(30.0)));
  s.start_probe(0);
  s.run(sim::seconds(1.0));
  int victim = s.owner_of(0);
  s.disconnect_server(victim);
  s.run(sim::seconds(20.0));
  auto gaps = s.probe().interruptions();
  ASSERT_EQ(gaps.size(), 1u);
  double secs = sim::to_seconds(gaps[0].length());
  // The paper reports 10-12 s for default Spread.
  EXPECT_GE(secs, 9.5);
  EXPECT_LE(secs, 12.5);
}

TEST(IntegrationCluster, GracefulLeaveInterruptionTiny) {
  ClusterScenario s(ClusterOptions{});
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.start_probe(0);
  s.run(sim::seconds(1.0));
  int victim = s.owner_of(0);
  s.graceful_leave(victim);
  s.run(sim::seconds(2.0));
  // §6: graceful departure interrupts availability for ~10 ms, with a
  // conservative upper bound of 250 ms.
  auto gap = s.probe().longest_gap();
  EXPECT_LE(sim::to_millis(gap), 250.0);
  std::vector<int> survivors;
  for (int i = 0; i < s.num_servers(); ++i) {
    if (i != victim) survivors.push_back(i);
  }
  EXPECT_TRUE(s.coverage_exactly_once(survivors));
}

TEST(IntegrationCluster, UnprobedVipsAlsoMove) {
  ClusterOptions opt;
  opt.num_servers = 4;
  opt.num_vips = 8;
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.disconnect_server(1);
  s.run(sim::seconds(6.0));
  std::vector<int> survivors{0, 2, 3};
  EXPECT_TRUE(s.coverage_exactly_once(survivors));
}

TEST(IntegrationCluster, PartitionBothSidesCoverEverything) {
  ClusterOptions opt;
  opt.num_servers = 4;
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.partition({{0, 1}, {2, 3}});
  s.run(sim::seconds(8.0));
  EXPECT_TRUE(s.coverage_exactly_once({0, 1}));
  EXPECT_TRUE(s.coverage_exactly_once({2, 3}));
  s.merge();
  s.run(sim::seconds(8.0));
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
}

TEST(IntegrationCluster, SequentialFailuresDownToOneServer) {
  ClusterOptions opt;
  opt.num_servers = 4;
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.disconnect_server(3);
  s.run(sim::seconds(6.0));
  EXPECT_TRUE(s.coverage_exactly_once({0, 1, 2}));
  s.disconnect_server(2);
  s.run(sim::seconds(6.0));
  EXPECT_TRUE(s.coverage_exactly_once({0, 1}));
  s.disconnect_server(1);
  s.run(sim::seconds(6.0));
  // "as long as at least one physical server survives".
  EXPECT_TRUE(s.coverage_exactly_once({0}));
  EXPECT_EQ(s.wam(0).owned().size(), 10u);
}

TEST(IntegrationCluster, RouterArpCacheIsSpoofedOnFailover) {
  ClusterScenario s(ClusterOptions{});
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  s.start_probe(0);
  s.run(sim::seconds(1.0));
  int victim = s.owner_of(0);
  auto victim_mac = s.server_host(victim).mac(0);
  auto cached = s.router()->arp_cache().lookup(s.vip(0), s.sched.now());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, victim_mac);
  s.disconnect_server(victim);
  s.run(sim::seconds(6.0));
  int heir = s.owner_of(0);
  // owner_of scans all servers including the disconnected one (which still
  // holds its aliases in its own isolated component); find the reachable one.
  std::vector<int> survivors;
  for (int i = 0; i < s.num_servers(); ++i) {
    if (i != victim) survivors.push_back(i);
  }
  ASSERT_EQ(s.coverage_count(s.vip(0), survivors), 1);
  auto now_cached = s.router()->arp_cache().lookup(s.vip(0), s.sched.now());
  ASSERT_TRUE(now_cached.has_value());
  EXPECT_NE(*now_cached, victim_mac);
  (void)heir;
}

TEST(IntegrationCluster, TwelveServersTenVips) {
  // The paper's largest configuration: 12 servers, 10 VIPs.
  ClusterOptions opt;
  opt.num_servers = 12;
  opt.num_vips = 10;
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(15.0)));
  EXPECT_TRUE(s.coverage_exactly_once(s.all_servers()));
  s.disconnect_server(5);
  s.run(sim::seconds(6.0));
  std::vector<int> survivors;
  for (int i = 0; i < 12; ++i) {
    if (i != 5) survivors.push_back(i);
  }
  EXPECT_TRUE(s.coverage_exactly_once(survivors));
}

TEST(IntegrationCluster, ScenarioLogRecordsWarnAndAbove) {
  ClusterOptions opt;
  opt.num_servers = 2;
  ClusterScenario s(opt);
  s.start();
  ASSERT_TRUE(s.run_until_stable(sim::seconds(10.0)));
  const char* env = std::getenv("WAM_LOG");
  if (env != nullptr && env[0] == '1') {
    // A debugging run records every level.
    EXPECT_EQ(s.log.min_level(), sim::LogLevel::kTrace);
    return;
  }
  for (const auto& rec : s.log.records()) {
    EXPECT_GE(rec.level, sim::LogLevel::kWarn) << rec.render();
  }
  s.crash_daemon(0);
  s.run(sim::seconds(1.0));
  EXPECT_EQ(s.log.count("wam/", "lost local GCS daemon"), 1u);
}

}  // namespace
}  // namespace wam::apps
