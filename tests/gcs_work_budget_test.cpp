// Work budgets for the membership protocol: cheap deterministic counts
// that fail loudly when a complexity regression comes back, long before it
// shows up as a slow bench.
//
// The budget is on Discovery frames per membership change, read from the
// per-type send counters (gcs/<scope>/tx/discovery/frames). A daemon that
// re-floods its whole known set on every new daemon it learns costs
// O(N^2) frames per daemon and O(N^3) per change (about 100*N for a crash
// at 16 members); coalescing the re-floods keeps it near 4*N.
#include <gtest/gtest.h>

#include <string>

#include "gcs_fixture.hpp"
#include "obs/observability.hpp"

namespace wam::testing {
namespace {

constexpr std::uint64_t kFramesPerMemberBudget = 8;

struct BudgetCluster {
  obs::Observability obs;  // outlives the daemons bound to it
  GcsCluster c;

  explicit BudgetCluster(int n) : c(n) {
    for (std::size_t i = 0; i < c.daemons.size(); ++i) {
      c.daemons[i]->bind_observability(obs, "gcs/s" + std::to_string(i + 1));
    }
  }
  [[nodiscard]] std::uint64_t discovery_frames() const {
    return obs.registry.sum("gcs/*/tx/discovery/frames");
  }
};

class DiscoveryBudget : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryBudget, FramesPerMembershipChangeLinearInN) {
  const int n = GetParam();
  const auto budget = kFramesPerMemberBudget * static_cast<std::uint64_t>(n);
  BudgetCluster b(n);
  std::vector<int> all;
  for (int i = 0; i < n; ++i) all.push_back(i);
  std::vector<int> survivors(all.begin() + 1, all.end());

  b.c.start_all();
  b.c.run(sim::seconds(5.0));
  b.c.expect_views({all}, "bootstrap");

  // One member leaves (crash, detected by the survivors' timeouts).
  auto before = b.discovery_frames();
  b.c.daemons[0]->stop();
  b.c.run(sim::seconds(5.0));
  b.c.expect_views({survivors}, "after crash");
  auto crash_frames = b.discovery_frames() - before;
  EXPECT_LE(crash_frames, budget)
      << n << " members: " << crash_frames
      << " Discovery frames for one crash (budget " << budget << ")";

  // The same member comes back: a join.
  before = b.discovery_frames();
  b.c.daemons[0]->start();
  b.c.run(sim::seconds(5.0));
  b.c.expect_views({all}, "after rejoin");
  auto join_frames = b.discovery_frames() - before;
  EXPECT_LE(join_frames, budget)
      << n << " members: " << join_frames
      << " Discovery frames for one join (budget " << budget << ")";
}

INSTANTIATE_TEST_SUITE_P(Members, DiscoveryBudget,
                         ::testing::Values(8, 16, 32, 64));

TEST(GcsTxCounters, CountEveryTypeSentUnderItsOwnName) {
  BudgetCluster b(3);
  b.c.start_all();
  b.c.run(sim::seconds(5.0));
  b.c.expect_views({{0, 1, 2}}, "bootstrap");
  const auto& reg = b.obs.registry;
  for (const char* type :
       {"heartbeat", "discovery", "propose", "accept", "install"}) {
    const std::string frames = std::string("gcs/*/tx/") + type + "/frames";
    const std::string bytes = std::string("gcs/*/tx/") + type + "/bytes";
    EXPECT_GT(reg.sum(frames), 0u) << type;
    // Every frame carries at least its type byte.
    EXPECT_GE(reg.sum(bytes), reg.sum(frames)) << type;
  }
  // One counter per message type per daemon.
  EXPECT_EQ(reg.match("gcs/s1/tx/*/frames").size(),
            std::variant_size_v<gcs::Message>);
  // The daemon's counter view reads the same registry cell.
  const auto discovery = gcs::Message(gcs::Discovery{}).index();
  EXPECT_EQ(b.c.daemons[0]->counters().tx_frames[discovery].value(),
            reg.counter_value("gcs/s1/tx/discovery/frames"));
}

}  // namespace
}  // namespace wam::testing
