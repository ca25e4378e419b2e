// Fuzzed properties of the deterministic allocation procedures: for random
// tables, member sets, maturity flags and preferences,
//   * reallocate_ips covers every hole exactly once with mature members,
//   * balance_ips produces a complete allocation with loads within one,
//   * both are pure functions (same inputs -> same outputs), the property
//     Lemma 1/2 rely on.
#include <gtest/gtest.h>

#include <map>

#include "sim/random.hpp"
#include "wackamole/balance.hpp"

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

Fuzz make_fuzz(sim::Rng& rng) {
  Fuzz f;
  int n_groups = static_cast<int>(rng.range(1, 30));
  int n_members = static_cast<int>(rng.range(1, 8));
  for (int i = 0; i < n_groups; ++i) {
    f.groups.push_back("g" + std::to_string(100 + i));
  }
  for (int m = 0; m < n_members; ++m) {
    MemberInfo mi;
    mi.id = member(m + 1);
    mi.mature = rng.chance(0.8);
    for (const auto& g : f.groups) {
      if (rng.chance(0.1)) mi.preferred.insert(g);
    }
    f.members.push_back(std::move(mi));
  }
  // Random partial table: some groups owned by members (possibly departed
  // ones), some unowned.
  for (const auto& g : f.groups) {
    double roll = rng.uniform();
    if (roll < 0.4) {
      f.table.set_owner(
          intern_group(g), f.members[rng.below(f.members.size())].id);
    } else if (roll < 0.5) {
      f.table.set_owner(intern_group(g), member(99));  // departed member
    }
  }
  return f;
}

class BalanceFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BalanceFuzzTest, ReallocateProperties) {
  sim::Rng rng(GetParam() * 1117);
  for (int iter = 0; iter < 40; ++iter) {
    auto f = make_fuzz(rng);
    auto a1 = reallocate_ips(f.groups, f.table, f.members);
    auto a2 = reallocate_ips(f.groups, f.table, f.members);
    EXPECT_EQ(a1, a2) << "non-deterministic reallocate";

    bool any_mature = false;
    for (const auto& m : f.members) any_mature |= m.mature;
    auto holes = f.table.uncovered(f.groups);
    if (!any_mature) {
      EXPECT_TRUE(a1.empty());
      continue;
    }
    EXPECT_EQ(a1.size(), holes.size());
    for (const auto& [g, owner] : a1) {
      bool owner_is_mature_member = false;
      for (const auto& m : f.members) {
        if (m.id == owner) owner_is_mature_member = m.mature;
      }
      EXPECT_TRUE(owner_is_mature_member)
          << g << " assigned to immature/unknown " << owner.to_string();
      EXPECT_FALSE(f.table.owner(intern_group(g)).has_value())
          << g << " was not a hole";
    }
  }
}

TEST_P(BalanceFuzzTest, BalanceProperties) {
  sim::Rng rng(GetParam() * 2221);
  for (int iter = 0; iter < 40; ++iter) {
    auto f = make_fuzz(rng);
    auto a1 = balance_ips(f.groups, f.table, f.members);
    auto a2 = balance_ips(f.groups, f.table, f.members);
    EXPECT_EQ(a1, a2) << "non-deterministic balance";

    bool any_mature = false;
    for (const auto& m : f.members) any_mature |= m.mature;
    if (!any_mature) {
      EXPECT_TRUE(a1.empty());
      continue;
    }
    // Complete allocation...
    EXPECT_EQ(a1.size(), f.groups.size());
    // ...to mature members only...
    std::map<gcs::MemberId, std::size_t> load;
    for (const auto& [g, owner] : a1) {
      bool mature = false;
      for (const auto& m : f.members) {
        if (m.id == owner) mature = m.mature;
      }
      EXPECT_TRUE(mature);
      ++load[owner];
    }
    // ...with loads within one of each other.
    std::size_t lo = SIZE_MAX, hi = 0;
    for (const auto& m : f.members) {
      if (!m.mature) continue;
      auto it = load.find(m.id);
      std::size_t l = it == load.end() ? 0 : it->second;
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    EXPECT_LE(hi - lo, 1u) << "unbalanced allocation";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalanceFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace wam::wackamole
