// The fast allocation procedures must reproduce the legacy reference
// implementations DECISION-FOR-DECISION, not merely satisfy the same
// properties: every daemon in a mixed fleet must compute the identical
// allocation, and the chaos replay corpus pins byte-identical transcripts
// that depend on every tie-break. This suite drives both implementations
// over >1000 randomized configurations, including the corners where the
// strictness tiers and weight handling diverge most easily:
//   * quarantine-heavy members (tier-2 vs tier-1 placement),
//   * fully-quarantined clusters (tier-0 forced coverage),
//   * capacity weights including the degenerate zero/negative weights,
//   * preference-heavy configs (preference beats load),
//   * departed owners and partially-covered tables.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "wackamole/balance.hpp"
#include "wackamole/balance_legacy.hpp"

namespace wam::wackamole {
namespace {

gcs::MemberId member(int n) {
  return gcs::MemberId{
      gcs::DaemonId(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n))),
      1, "w"};
}

struct Fuzz {
  std::vector<std::string> groups;
  std::vector<MemberInfo> members;
  VipTable table;
};

/// Knobs that push a configuration into one of the corner regimes.
struct Shape {
  double p_mature = 0.8;
  double p_prefer = 0.1;
  double p_quarantine = 0.0;
  bool random_weights = false;
  bool degenerate_weights = false;  // weights drawn from {-1, 0, 1, 2}
  int max_groups = 30;
  int max_members = 8;
};

Fuzz make_fuzz(sim::Rng& rng, const Shape& shape) {
  Fuzz f;
  int n_groups = static_cast<int>(rng.range(1, shape.max_groups));
  int n_members = static_cast<int>(rng.range(1, shape.max_members));
  for (int i = 0; i < n_groups; ++i) {
    f.groups.push_back("g" + std::to_string(100 + i));
  }
  for (int m = 0; m < n_members; ++m) {
    MemberInfo mi;
    mi.id = member(m + 1);
    mi.mature = rng.chance(shape.p_mature);
    if (shape.degenerate_weights) {
      mi.weight = static_cast<int>(rng.range(0, 4)) - 1;
    } else if (shape.random_weights) {
      mi.weight = static_cast<int>(rng.range(1, 5));
    }
    for (const auto& g : f.groups) {
      if (rng.chance(shape.p_prefer)) mi.preferred.insert(g);
      if (rng.chance(shape.p_quarantine)) mi.quarantined.insert(g);
    }
    // Occasionally fence a group outside the configured set: exercises the
    // quarantined_any distinction (member is suspect for strictness even
    // though no in-set lookup ever hits the name).
    if (shape.p_quarantine > 0 && rng.chance(0.2)) {
      mi.quarantined.insert("external-" + std::to_string(m));
    }
    f.members.push_back(std::move(mi));
  }
  for (const auto& g : f.groups) {
    double roll = rng.uniform();
    if (roll < 0.4) {
      f.table.set_owner(intern_group(g),
                        f.members[rng.below(f.members.size())].id);
    } else if (roll < 0.5) {
      f.table.set_owner(intern_group(g), member(99));  // departed member
    }
  }
  return f;
}

void expect_identical(const Fuzz& f, const char* what) {
  auto legacy_r = legacy_reallocate_ips(f.groups, f.table, f.members);
  auto fast_r = reallocate_ips(f.groups, f.table, f.members);
  EXPECT_EQ(legacy_r, fast_r) << what << ": reallocate decisions diverged";

  auto legacy_b = legacy_balance_ips(f.groups, f.table, f.members);
  auto fast_b = balance_ips(f.groups, f.table, f.members);
  EXPECT_EQ(legacy_b, fast_b) << what << ": balance decisions diverged";
}

class EquivalenceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceFuzz, PlainConfigs) {
  sim::Rng rng(GetParam() * 7919);
  for (int iter = 0; iter < 40; ++iter) {
    expect_identical(make_fuzz(rng, Shape{}), "plain");
  }
}

TEST_P(EquivalenceFuzz, QuarantineHeavy) {
  sim::Rng rng(GetParam() * 104729);
  Shape shape;
  shape.p_quarantine = 0.35;
  for (int iter = 0; iter < 40; ++iter) {
    expect_identical(make_fuzz(rng, shape), "quarantine-heavy");
  }
}

TEST_P(EquivalenceFuzz, ForcedCoverage) {
  // Every member fenced for (nearly) every group: placement falls through
  // to the strictness-1 and strictness-0 tiers, where someone must take the
  // group anyway rather than leave the address dark.
  sim::Rng rng(GetParam() * 1299709);
  Shape shape;
  shape.p_quarantine = 0.9;
  shape.max_groups = 12;
  shape.max_members = 5;
  for (int iter = 0; iter < 40; ++iter) {
    expect_identical(make_fuzz(rng, shape), "forced-coverage");
  }
}

TEST_P(EquivalenceFuzz, Weighted) {
  sim::Rng rng(GetParam() * 15485863);
  Shape shape;
  shape.random_weights = true;
  shape.p_quarantine = 0.1;
  for (int iter = 0; iter < 40; ++iter) {
    expect_identical(make_fuzz(rng, shape), "weighted");
  }
}

TEST_P(EquivalenceFuzz, DegenerateWeights) {
  // Zero and negative weights break the cross-multiplication ordering the
  // reallocate heap relies on; the fast path must detect this and take its
  // linear fallback, still matching the reference scan exactly.
  sim::Rng rng(GetParam() * 32452843);
  Shape shape;
  shape.degenerate_weights = true;
  for (int iter = 0; iter < 40; ++iter) {
    expect_identical(make_fuzz(rng, shape), "degenerate-weights");
  }
}

TEST_P(EquivalenceFuzz, PreferenceHeavy) {
  sim::Rng rng(GetParam() * 49979687);
  Shape shape;
  shape.p_prefer = 0.5;
  shape.p_quarantine = 0.15;
  for (int iter = 0; iter < 40; ++iter) {
    expect_identical(make_fuzz(rng, shape), "preference-heavy");
  }
}

// 6 regimes x 5 seeds x 40 iterations = 1200 randomized configurations,
// each checked for both procedures.
INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// The dense API must agree with the string wrappers (the wrappers ARE the
// fast path, so this pins the GroupSet/MemberState translation itself).
TEST(EquivalenceDense, DenseApiMatchesStringWrapper) {
  sim::Rng rng(4242);
  for (int iter = 0; iter < 50; ++iter) {
    Shape shape;
    shape.p_quarantine = 0.2;
    shape.random_weights = true;
    auto f = make_fuzz(rng, shape);

    GroupSet groups(f.groups);
    auto states = to_member_states(groups, f.members);

    auto from_placement = [&](const Placement& p) {
      std::map<std::string, gcs::MemberId> out;
      for (auto [pos, mi] : p) out.emplace(groups.names[pos], states[mi].id);
      return out;
    };

    EXPECT_EQ(from_placement(reallocate_ips_fast(groups, f.table, states)),
              legacy_reallocate_ips(f.groups, f.table, f.members));
    EXPECT_EQ(from_placement(balance_ips_fast(groups, f.table, states)),
              legacy_balance_ips(f.groups, f.table, f.members));
  }
}

// A handful of hand-built corners that random generation hits rarely.
TEST(EquivalenceCorners, EmptyAndSingletons) {
  std::vector<std::string> no_groups;
  std::vector<MemberInfo> no_members;
  VipTable empty;
  EXPECT_EQ(legacy_reallocate_ips(no_groups, empty, no_members),
            reallocate_ips(no_groups, empty, no_members));
  EXPECT_EQ(legacy_balance_ips(no_groups, empty, no_members),
            balance_ips(no_groups, empty, no_members));

  std::vector<std::string> one_group{"g"};
  MemberInfo solo;
  solo.id = member(1);
  solo.mature = true;
  std::vector<MemberInfo> members{solo};
  EXPECT_EQ(legacy_reallocate_ips(one_group, empty, members),
            reallocate_ips(one_group, empty, members));
  EXPECT_EQ(legacy_balance_ips(one_group, empty, members),
            balance_ips(one_group, empty, members));
}

TEST(EquivalenceCorners, AllImmature) {
  std::vector<std::string> groups{"a", "b", "c"};
  std::vector<MemberInfo> members;
  for (int i = 1; i <= 3; ++i) {
    MemberInfo mi;
    mi.id = member(i);
    mi.mature = false;
    members.push_back(mi);
  }
  VipTable table;
  EXPECT_TRUE(reallocate_ips(groups, table, members).empty());
  EXPECT_TRUE(balance_ips(groups, table, members).empty());
  EXPECT_EQ(legacy_reallocate_ips(groups, table, members),
            reallocate_ips(groups, table, members));
  EXPECT_EQ(legacy_balance_ips(groups, table, members),
            balance_ips(groups, table, members));
}

TEST(EquivalenceCorners, EveryMemberFencedForEveryGroup) {
  std::vector<std::string> groups{"a", "b", "c", "d"};
  std::vector<MemberInfo> members;
  for (int i = 1; i <= 3; ++i) {
    MemberInfo mi;
    mi.id = member(i);
    mi.mature = true;
    for (const auto& g : groups) mi.quarantined.insert(g);
    members.push_back(mi);
  }
  VipTable table;
  auto legacy = legacy_reallocate_ips(groups, table, members);
  auto fast = reallocate_ips(groups, table, members);
  EXPECT_EQ(legacy, fast);
  EXPECT_EQ(fast.size(), groups.size()) << "forced coverage must still cover";
  EXPECT_EQ(legacy_balance_ips(groups, table, members),
            balance_ips(groups, table, members));
}

}  // namespace
}  // namespace wam::wackamole
