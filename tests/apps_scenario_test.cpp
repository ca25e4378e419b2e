#include "apps/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace wam::apps {
namespace {

TEST(ScenarioParse, HeaderDirectives) {
  auto p = parse_scenario(
      "servers 5\nvips 7\ngcs default\nbalance 45\nrun 90\n");
  EXPECT_EQ(p.options.num_servers, 5);
  EXPECT_EQ(p.options.num_vips, 7);
  EXPECT_EQ(sim::to_seconds(p.options.gcs.fault_detection_timeout), 5.0);
  EXPECT_EQ(sim::to_seconds(p.options.balance_timeout), 45.0);
  EXPECT_EQ(sim::to_seconds(p.run_until), 90.0);
}

TEST(ScenarioParse, CommentsAndBlanksIgnored) {
  auto p = parse_scenario("# hello\n\n   \nservers 2 # trailing\n");
  EXPECT_EQ(p.options.num_servers, 2);
  EXPECT_TRUE(p.actions.empty());
}

TEST(ScenarioParse, Actions) {
  auto p = parse_scenario(
      "servers 4\n"
      "at 5 disconnect server2\n"
      "at 6 reconnect server2\n"
      "at 7 leave server3\n"
      "at 8 partition server1,server2 | server3,server4\n"
      "at 9 merge\n"
      "at 10 balance\n"
      "at 11 status server1\n"
      "at 12 coverage\n"
      "run 20\n");
  ASSERT_EQ(p.actions.size(), 8u);
  EXPECT_EQ(p.actions[0].verb, "disconnect");
  EXPECT_EQ(p.actions[0].servers, (std::vector<int>{1}));
  EXPECT_EQ(p.actions[3].verb, "partition");
  ASSERT_EQ(p.actions[3].groups.size(), 2u);
  EXPECT_EQ(p.actions[3].groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(p.actions[3].groups[1], (std::vector<int>{2, 3}));
}

TEST(ScenarioParse, DefaultRunPastLastAction) {
  auto p = parse_scenario("servers 2\nat 42 merge\n");
  EXPECT_EQ(sim::to_seconds(p.run_until), 52.0);
}

TEST(ScenarioParse, Errors) {
  EXPECT_THROW(parse_scenario("bogus 3\n"), ScriptError);
  EXPECT_THROW(parse_scenario("servers 0\n"), ScriptError);
  EXPECT_THROW(parse_scenario("servers 2\nat 5 disconnect server9\n"),
               ScriptError);
  EXPECT_THROW(parse_scenario("servers 2\nat 5 explode server1\n"),
               ScriptError);
  EXPECT_THROW(parse_scenario("servers 2\nat 5 partition server1\n"),
               ScriptError);
  EXPECT_THROW(parse_scenario("servers 2\nat 5 disconnect notaserver\n"),
               ScriptError);
  EXPECT_THROW(parse_scenario("gcs sideways\n"), ScriptError);
  EXPECT_THROW(parse_scenario("run -5\n"), ScriptError);
}

TEST(ScenarioRun, FaultAndRecoveryEndsConsistent) {
  std::ostringstream out;
  bool ok = run_scenario(
      "servers 3\nvips 6\ngcs tuned\n"
      "at 3 disconnect server2\n"
      "at 10 reconnect server2\n"
      "at 18 balance\n"
      "run 25\n",
      out);
  EXPECT_TRUE(ok) << out.str();
  EXPECT_NE(out.str().find("exactly-once over reachable servers: OK"),
            std::string::npos);
}

TEST(ScenarioRun, CoverageReportNamesOwners) {
  std::ostringstream out;
  bool ok = run_scenario("servers 2\nvips 2\nat 3 coverage\nrun 6\n", out);
  EXPECT_TRUE(ok);
  EXPECT_NE(out.str().find("10.0.0.100 -> server"), std::string::npos);
}

TEST(ScenarioRun, LeaveShrinksReachableSet) {
  std::ostringstream out;
  bool ok = run_scenario(
      "servers 3\nvips 4\nat 3 leave server3\nrun 10\n", out);
  EXPECT_TRUE(ok) << out.str();
}

// The trace is destroyed before the cluster, whose teardown still sends
// frames: the trace must detach from the fabric first (ASan catches the
// write into the freed ring otherwise).
TEST(ScenarioRun, TracedRunTearsDownCleanly) {
  std::ostringstream out;
  bool ok = run_scenario("servers 3\nvips 4\nrun 5\n", out, 16);
  EXPECT_TRUE(ok) << out.str();
  EXPECT_NE(out.str().find("last 16 frames:"), std::string::npos);
}

TEST(ScenarioRun, StatusRendersState) {
  std::ostringstream out;
  run_scenario("servers 2\nvips 2\nat 3 status server1\nrun 6\n", out);
  EXPECT_NE(out.str().find("state: RUN"), std::string::npos);
}

}  // namespace
}  // namespace wam::apps
