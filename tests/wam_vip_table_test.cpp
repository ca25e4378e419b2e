#include "wackamole/vip_table.hpp"

#include <gtest/gtest.h>

namespace wam::wackamole {
namespace {

gcs::DaemonId ip(int n) {
  return gcs::DaemonId(net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(n)));
}

gcs::MemberId member(int n) { return gcs::MemberId{ip(n), 1, "w"}; }

gcs::GroupView view_of(std::initializer_list<int> daemons) {
  gcs::GroupView v;
  v.daemon_view = gcs::ViewId{1, ip(1)};
  for (int d : daemons) v.members.push_back(member(d));
  return v;
}

TEST(VipTable, ClaimUnowned) {
  VipTable t;
  auto r = t.claim(intern_group("g"), member(1), view_of({1, 2}));
  EXPECT_TRUE(r.claimed);
  EXPECT_FALSE(r.dropped.has_value());
  EXPECT_EQ(*t.owner(intern_group("g")), member(1));
}

TEST(VipTable, ReclaimByOwnerIsIdempotent) {
  VipTable t;
  auto v = view_of({1, 2});
  t.claim(intern_group("g"), member(1), v);
  auto r = t.claim(intern_group("g"), member(1), v);
  EXPECT_TRUE(r.claimed);
  EXPECT_FALSE(r.dropped.has_value());
}

TEST(VipTable, ConflictLaterMemberWins) {
  // The paper's rule: p releases vip if p appears in the membership list
  // BEFORE q. The later claimant keeps the address.
  VipTable t;
  auto v = view_of({1, 2});
  t.claim(intern_group("g"), member(1), v);
  auto r = t.claim(intern_group("g"), member(2), v);
  EXPECT_TRUE(r.claimed);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(*r.dropped, member(1));
  EXPECT_EQ(*t.owner(intern_group("g")), member(2));
}

TEST(VipTable, ConflictEarlierClaimantLoses) {
  VipTable t;
  auto v = view_of({1, 2});
  t.claim(intern_group("g"), member(2), v);
  auto r = t.claim(intern_group("g"), member(1), v);
  EXPECT_FALSE(r.claimed);
  ASSERT_TRUE(r.dropped.has_value());
  EXPECT_EQ(*r.dropped, member(1));
  EXPECT_EQ(*t.owner(intern_group("g")), member(2));
}

TEST(VipTable, ConflictResolutionIsSymmetric) {
  // Whatever the arrival order of the two claims, the final owner is the
  // same — this is what makes the distributed procedure deterministic.
  auto v = view_of({1, 2});
  VipTable a;
  a.claim(intern_group("g"), member(1), v);
  a.claim(intern_group("g"), member(2), v);
  VipTable b;
  b.claim(intern_group("g"), member(2), v);
  b.claim(intern_group("g"), member(1), v);
  EXPECT_EQ(*a.owner(intern_group("g")), *b.owner(intern_group("g")));
}

TEST(VipTable, LoadAndOwnedBy) {
  VipTable t;
  auto v = view_of({1, 2});
  t.claim(intern_group("a"), member(1), v);
  t.claim(intern_group("b"), member(1), v);
  t.claim(intern_group("c"), member(2), v);
  EXPECT_EQ(t.load_of(member(1)), 2u);
  EXPECT_EQ(t.load_of(member(2)), 1u);
  EXPECT_EQ(t.owned_by(member(1)), (std::vector<std::string>{"a", "b"}));
}

TEST(VipTable, Uncovered) {
  VipTable t;
  t.claim(intern_group("b"), member(1), view_of({1}));
  auto holes = t.uncovered({"a", "b", "c"});
  EXPECT_EQ(holes, (std::vector<std::string>{"a", "c"}));
}

TEST(VipTable, SetAndClearOwner) {
  VipTable t;
  t.set_owner(intern_group("g"), member(3));
  EXPECT_EQ(*t.owner(intern_group("g")), member(3));
  t.clear_owner(intern_group("g"));
  EXPECT_FALSE(t.owner(intern_group("g")).has_value());
}

TEST(VipTable, ClearEmptiesTable) {
  VipTable t;
  t.set_owner(intern_group("g"), member(1));
  t.clear();
  EXPECT_TRUE(t.owners().empty());
}

TEST(VipTable, DescribeListsOwners) {
  VipTable t;
  t.set_owner(intern_group("g"), member(1));
  EXPECT_NE(t.describe().find("g->"), std::string::npos);
}

}  // namespace
}  // namespace wam::wackamole
