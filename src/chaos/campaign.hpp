// The chaos campaign driver: seed -> schedule -> execution -> verdict.
//
// run_seed() derives two decoupled RNG streams from the campaign seed
// (sim::Rng::stream), generates a fault schedule from the first and seeds
// the scenario's network fabric from the second, executes the schedule
// against a fresh ClusterScenario or RouterScenario, and runs the
// invariant oracle at every checkpoint. Everything is virtual-time
// deterministic: running the same seed twice yields byte-identical
// observability timelines (CampaignResult::timeline_json), which is what
// makes a violating seed a complete bug report.
//
// On violation the result carries the replay artifact — the seed, the
// schedule rendered in the scenario DSL, the event timeline — and, unless
// disabled, a greedily shrunk action subsequence that still reproduces
// some violation (see chaos/shrink.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"

namespace wam::chaos {

enum class Profile { kCluster, kRouter };

[[nodiscard]] const char* profile_name(Profile p);

struct CampaignOptions {
  GeneratorOptions generator;
  bool shrink = true;          // minimize the schedule on violation
  int shrink_max_evals = 120;  // each evaluation is a full simulated run
};

struct CampaignResult {
  std::uint64_t seed = 0;
  Profile profile = Profile::kCluster;
  FaultSchedule schedule;
  std::vector<Violation> violations;
  /// Replay artifact: the schedule in apps/scenario.hpp DSL form.
  std::string dsl;
  /// Deterministic JSON export of the run's observability timeline.
  std::string timeline_json;
  /// On violation with shrinking enabled: the minimized action list (and
  /// its DSL rendering), plus the predicate runs it cost.
  std::vector<FaultAction> shrunk_actions;
  std::string shrunk_dsl;
  int shrink_evaluations = 0;
  /// State-fault runs: per applied corruption injection, milliseconds from
  /// injection to the target's first SelfHeal (the reconvergence window).
  std::vector<double> reconvergence_ms;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

/// Generate, execute and judge one seed. Deterministic.
[[nodiscard]] CampaignResult run_seed(std::uint64_t seed, Profile profile,
                                      const CampaignOptions& opt = {});

/// Execute `actions` against the schedule's checkpoints/horizon without
/// generating anything — the building block for replay and shrinking.
/// Returns the violations; fills `timeline_json` when non-null.
/// `reconvergence_ms`, when non-null, collects per-injection reconvergence
/// windows (state-fault cluster schedules only).
[[nodiscard]] std::vector<Violation> execute_schedule(
    const FaultSchedule& schedule, const std::vector<FaultAction>& actions,
    std::uint64_t fabric_seed, std::string* timeline_json,
    std::vector<double>* reconvergence_ms = nullptr);

}  // namespace wam::chaos
