// The self-stabilization chaos campaign (--state-faults): schedule
// generation, DSL round-trip (including the `audit` directive the replay
// artifact needs to heal), the ReconvergenceOracle, the corruption ×
// quarantine interaction, deterministic replay and the pinned ghost-member
// regression. See docs/CHAOS.md §state-faults.
#include <gtest/gtest.h>

#include "apps/scenario.hpp"
#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"

namespace wam::chaos {
namespace {

bool is_corruption(FaultKind k) {
  return k == FaultKind::kCorruptVipOwner || k == FaultKind::kCorruptIndex ||
         k == FaultKind::kStaleIncarnation || k == FaultKind::kFlipViewId ||
         k == FaultKind::kReconfigStorm;
}

// ---------------------------------------------------------- generation ----

TEST(StateFaultSchedule, CorruptionVerbsAreOptIn) {
  GeneratorOptions opt;
  sim::Rng rng(42);
  auto s = generate_cluster_schedule(rng, opt);
  EXPECT_FALSE(s.state_faults);
  for (const auto& a : s.actions) EXPECT_FALSE(is_corruption(a.kind));
}

TEST(StateFaultSchedule, GenerationIsDeterministicAndInjectsCorruption) {
  GeneratorOptions opt;
  opt.state_faults = true;
  sim::Rng r1(42), r2(42);
  auto a = generate_cluster_schedule(r1, opt);
  auto b = generate_cluster_schedule(r2, opt);
  EXPECT_EQ(to_dsl(a), to_dsl(b));
  EXPECT_TRUE(a.state_faults);
  bool any = false;
  for (const auto& x : a.actions) any |= is_corruption(x.kind);
  EXPECT_TRUE(any) << to_dsl(a);
}

TEST(StateFaultSchedule, DslRoundTripsIncludingTheAuditDirective) {
  GeneratorOptions opt;
  opt.state_faults = true;
  sim::Rng rng(5);
  auto s = generate_cluster_schedule(rng, opt);
  auto parsed = apps::parse_scenario(to_dsl(s));
  // The replay artifact must re-enable the auditors, or replayed
  // corruption would never heal and the artifact would spuriously fail.
  EXPECT_EQ(parsed.options.audit_interval, sim::milliseconds(250));
  EXPECT_EQ(parsed.options.gcs.audit_interval, sim::milliseconds(250));
  ASSERT_EQ(parsed.actions.size(), s.actions.size());
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    EXPECT_EQ(parsed.actions[i].verb, fault_kind_verb(s.actions[i].kind))
        << "action " << i;
    EXPECT_EQ(parsed.actions[i].servers, s.actions[i].servers)
        << "action " << i;
    EXPECT_DOUBLE_EQ(parsed.actions[i].value, s.actions[i].value)
        << "action " << i;
  }
}

TEST(StateFaultSchedule, ModelTreatsCorruptionAsNoOp) {
  // Transient corruption never changes the predicted steady state — that
  // is what makes shrunk subsequences sound.
  ClusterFaultModel m(3);
  FaultAction a;
  a.kind = FaultKind::kCorruptVipOwner;
  a.servers = {1};
  m.apply(a);
  EXPECT_TRUE(m.participant(1));
  EXPECT_FALSE(m.transient_active());
  EXPECT_EQ(m.components().size(), 1u);
}

// ------------------------------------------------------------ campaigns ----

TEST(StateFaultCampaign, ReplayIsByteIdentical) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto a = run_seed(7, Profile::kCluster, opt);
  auto b = run_seed(7, Profile::kCluster, opt);
  ASSERT_FALSE(a.timeline_json.empty());
  EXPECT_EQ(a.timeline_json, b.timeline_json);
  EXPECT_EQ(a.dsl, b.dsl);
  EXPECT_TRUE(a.passed()) << to_string(a.violations.front());
}

TEST(StateFaultCampaign, PinnedSeedsStayClean) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  for (std::uint64_t seed : {1u, 7u, 11u}) {
    auto r = run_seed(seed, Profile::kCluster, opt);
    EXPECT_TRUE(r.passed())
        << "seed " << seed << ": " << to_string(r.violations.front());
  }
}

TEST(StateFaultCampaign, Seed119GhostMemberRegression) {
  // A wackamole resync (fresh-incarnation leave+join, sequenced but not yet
  // delivered at the resyncing server's own GCS daemon) races a view
  // install. The merge's per-daemon authoritativeness filter used to prefer
  // that daemon's stale table entry, resurrecting the dead incarnation as a
  // ghost group member nobody could ever hear a STATE_MSG from — every
  // wackamole wedged in GATHER for the rest of the run. Fixed by
  // re-applying the install's sync-cut join/leave controls to the merged
  // table (gcs::Daemon::install_view); without that loop this seed reports
  // 19 violations (seeds 216, 232 and 276 fail without it too).
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto r = run_seed(119, Profile::kCluster, opt);
  EXPECT_TRUE(r.passed()) << to_string(r.violations.front());
}

TEST(StateFaultCampaign, ResyncWipeIsAudited) {
  // A corruption lands on a server while a resync it scheduled earlier is
  // still pending, and the resync wipes the table before the next timer
  // audit. The view-change and disconnect wipes audit first; the resync
  // wipe did not, so the oracle reported the corruption as never
  // detected. Fixed by the pre-wipe audit in
  // wackamole::Daemon::resync_tick; without it this seed reports a
  // corruption-undetected violation.
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto r = run_seed(73, Profile::kCluster, opt);
  EXPECT_TRUE(r.passed()) << to_string(r.violations.front());
}

TEST(StateFaultCampaign, MeasuresReconvergenceWindows) {
  CampaignOptions opt;
  opt.generator.state_faults = true;
  opt.shrink = false;
  auto r = run_seed(7, Profile::kCluster, opt);
  ASSERT_TRUE(r.passed()) << to_string(r.violations.front());
  ASSERT_FALSE(r.reconvergence_ms.empty());
  for (double ms : r.reconvergence_ms) {
    EXPECT_GT(ms, 0.0);
    // Detection within the 250 ms audit period, healing within the capped
    // resync backoff: anything past 10 s means the oracle lost track.
    EXPECT_LE(ms, 10'000.0);
  }
}

// ---------------------------------------- corruption x quarantine fence ----

// A member that is already OS-fault-quarantined gets a corruption on top;
// the self-fence heal path must compose with the existing quarantine
// instead of deadlocking coverage (the fence releases, peers take over,
// the cooldown probe un-fences after the OS heals).
TEST(StateFaultCampaign, CorruptionWhileOsQuarantinedStillReconverges) {
  FaultSchedule s;
  s.num_servers = 3;
  s.num_vips = 5;
  s.os_faults = true;
  s.state_faults = true;
  s.horizon = sim::seconds(45.0);

  auto act = [](double at_s, FaultKind kind, std::vector<int> servers,
                double value = 0.0) {
    FaultAction a;
    a.at = sim::seconds(at_s);
    a.kind = kind;
    a.servers = std::move(servers);
    a.value = value;
    return a;
  };
  // Sticky OS fault first: server2's next acquires fail, it fences and
  // quarantines whatever lands on it. Then corrupt its VIP table while
  // quarantined, heal the OS, and let the cooldown probe recover.
  s.actions.push_back(act(5.0, FaultKind::kOsFailSticky, {1}));
  s.actions.push_back(act(8.0, FaultKind::kCorruptVipOwner, {1}, 0.0));
  s.actions.push_back(act(18.0, FaultKind::kOsHeal, {1}));
  s.checkpoints.push_back({sim::seconds(38.0), false});
  s.checkpoints.push_back({sim::seconds(43.0), true});

  auto violations =
      execute_schedule(s, s.actions, /*fabric_seed=*/99, nullptr);
  EXPECT_TRUE(violations.empty()) << to_string(violations.front());
}

}  // namespace
}  // namespace wam::chaos
