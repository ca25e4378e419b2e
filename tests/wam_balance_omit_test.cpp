// Pins around BALANCE/ALLOC input handling.
//
// 1. MemberId equality ignores the informational name: BALANCE_MSGs carry
//    bare (daemon ip, client id) owner pairs, and the daemon reconstructs
//    MemberIds with an empty name. If the name ever joined the identity,
//    every daemon would conclude "not me" for every allocation entry and
//    drop all its addresses on the next balance round.
//
// 2. A BALANCE whose allocation omits a configured group (version-skewed
//    or buggy representative) must not silently drop that group's
//    coverage: omitted groups keep their present owner.
//
// 3. Input the daemon drops on receipt: messages with the retired wire-v1
//    codes, and BALANCE/ALLOC entries for unconfigured groups — the table
//    only ever holds configured groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/cluster_scenario.hpp"
#include "gcs/client.hpp"
#include "gcs/message.hpp"
#include "net/frame.hpp"
#include "wackamole/wire.hpp"
#include "wam_fixture.hpp"

namespace wam::wackamole {
namespace {

TEST(MemberId, EqualityIgnoresInformationalName) {
  gcs::DaemonId d(net::Ipv4Address(10, 0, 0, 1));
  gcs::MemberId a{d, 1, "wackamole"};
  gcs::MemberId b{d, 1, ""};
  gcs::MemberId c{d, 2, "wackamole"};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_NE(a, c);
  gcs::MemberId other{gcs::DaemonId(net::Ipv4Address(10, 0, 0, 2)), 1,
                      "wackamole"};
  EXPECT_NE(a, other);
}

struct BalanceOmitTest : ::testing::Test {
  apps::ClusterOptions opt;
  std::unique_ptr<apps::ClusterScenario> s;

  void SetUp() override {
    opt.num_servers = 3;
    opt.num_vips = 6;
    opt.with_router = false;
    s = std::make_unique<apps::ClusterScenario>(opt);
    s->start();
    ASSERT_TRUE(s->run_until_stable(sim::seconds(10.0)));
    s->wam(0).trigger_balance();
    s->run(sim::seconds(1.0));
    ASSERT_TRUE(s->coverage_exactly_once(s->all_servers()));
  }

  /// Multicast `payload` into the wackamole group from a connected,
  /// non-member injector client — the version-skewed-peer vector.
  void inject(const util::Bytes& payload) {
    gcs::Client injector("injector", gcs::ClientCallbacks{});
    ASSERT_TRUE(injector.connect(s->gcs_daemon(0)));
    injector.multicast(s->wam(0).config().group, payload);
    s->run(sim::seconds(2.0));
    injector.disconnect();
  }

  /// Every server's table and holdings, for before/after comparison.
  std::vector<std::string> snapshot() {
    std::vector<std::string> out;
    for (int i = 0; i < opt.num_servers; ++i) {
      out.push_back(s->wam(i).table().describe());
      std::string held;
      for (const auto& g : s->wam(i).owned()) held += g + ",";
      out.push_back(held);
    }
    return out;
  }
};

TEST_F(BalanceOmitTest, OmittedGroupKeepsItsOwnerAndCoverage) {
  const auto& groups = s->wam(0).config().vip_groups;
  ASSERT_GE(groups.size(), 2u);
  const std::string omitted = groups.front().name;
  auto before = s->wam(0).table().owner(intern_group(omitted));
  ASSERT_TRUE(before.has_value());

  // Re-assert every current owner except the omitted group's.
  BalanceMsgV2 msg;
  msg.view = ViewTag::of(*s->wam(0).view());
  for (const auto& g : groups) {
    if (g.name == omitted) continue;
    auto owner = s->wam(0).table().owner(intern_group(g.name));
    ASSERT_TRUE(owner.has_value()) << g.name;
    msg.allocation.emplace_back(
        intern_group(g.name),
        std::make_pair(owner->daemon.value(), owner->client));
  }
  inject(encode_balance_v2(msg));

  // The omission must not have moved or dropped anything.
  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
  auto after = s->wam(0).table().owner(intern_group(omitted));
  ASSERT_TRUE(after.has_value())
      << "omitted group lost its owner — coverage silently dropped";
  EXPECT_EQ(*after, *before);
}

TEST_F(BalanceOmitTest, ReassignmentStillAppliesForListedGroups) {
  // Same skewed message, but one listed group is explicitly moved to
  // another server: the move must apply even while omissions are ignored.
  const auto& groups = s->wam(0).config().vip_groups;
  const std::string omitted = groups.front().name;
  const std::string moved = groups.back().name;
  ASSERT_NE(omitted, moved);
  auto old_owner = s->wam(0).table().owner(intern_group(moved));
  ASSERT_TRUE(old_owner.has_value());
  // Pick a different server as the new owner.
  gcs::MemberId new_owner = *old_owner;
  for (int i = 0; i < opt.num_servers; ++i) {
    auto self = s->wam(i).self();
    ASSERT_TRUE(self.has_value());
    if (!(*self == *old_owner)) {
      new_owner = *self;
      break;
    }
  }
  ASSERT_NE(new_owner, *old_owner);

  BalanceMsgV2 msg;
  msg.view = ViewTag::of(*s->wam(0).view());
  for (const auto& g : groups) {
    if (g.name == omitted) continue;
    auto id = intern_group(g.name);
    auto owner = g.name == moved ? new_owner : *s->wam(0).table().owner(id);
    msg.allocation.emplace_back(
        id, std::make_pair(owner.daemon.value(), owner.client));
  }
  inject(encode_balance_v2(msg));

  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
  auto now_owner = s->wam(0).table().owner(intern_group(moved));
  ASSERT_TRUE(now_owner.has_value());
  EXPECT_EQ(*now_owner, new_owner);
}

TEST_F(BalanceOmitTest, RetiredV1MessagesAreDropped) {
  // Well-formed bodies in the retired wire-v1 layout (u32 counts,
  // u32-length-prefixed names), in the current view: a STATE in which a
  // second server claims every group, and a BALANCE moving every group to
  // that server. Decoded, either would move or drop addresses.
  const auto tag = ViewTag::of(*s->wam(0).view());
  const auto thief = *s->wam(1).self();
  const auto names = s->wam(0).config().group_names();
  auto put_tag = [&](util::ByteWriter& w) {
    w.u64(tag.epoch);
    w.u32(tag.coordinator);
    w.u64(tag.group_seq);
  };
  util::ByteWriter state;
  state.u8(static_cast<std::uint8_t>(WamMsgType::kState));
  put_tag(state);
  state.boolean(true);  // mature
  state.u32(1);         // weight
  state.u32(static_cast<std::uint32_t>(names.size()));
  for (const auto& n : names) state.str(n);
  state.u32(0);  // preferred
  state.u32(0);  // quarantined
  util::ByteWriter balance;
  balance.u8(static_cast<std::uint8_t>(WamMsgType::kBalance));
  put_tag(balance);
  balance.u32(static_cast<std::uint32_t>(names.size()));
  for (const auto& n : names) {
    balance.str(n);
    balance.u32(thief.daemon.value());
    balance.u32(thief.client);
  }

  const auto before = snapshot();
  const auto applied = s->wam(0).counters().balance_applied.value();
  inject(state.take());
  inject(balance.take());
  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(s->wam(0).counters().balance_applied.value(), applied);
  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
}

TEST_F(BalanceOmitTest, UnconfiguredGroupInBalanceIsDropped) {
  // Re-assert every current owner and add an entry for a group no server
  // is configured with.
  BalanceMsgV2 msg;
  msg.view = ViewTag::of(*s->wam(0).view());
  const auto& groups = s->wam(0).config().vip_groups;
  for (const auto& g : groups) {
    auto id = intern_group(g.name);
    auto owner = *s->wam(0).table().owner(id);
    msg.allocation.emplace_back(
        id, std::make_pair(owner.daemon.value(), owner.client));
  }
  const auto unknown = intern_group("unconfigured-vip-group");
  msg.allocation.emplace_back(
      unknown, msg.allocation.front().second);
  inject(encode_balance_v2(msg));

  for (int i = 0; i < opt.num_servers; ++i) {
    EXPECT_EQ(s->wam(i).table().size(), groups.size()) << "server " << i;
    EXPECT_FALSE(s->wam(i).table().owner(unknown).has_value())
        << "server " << i;
  }
  EXPECT_TRUE(s->coverage_exactly_once(s->all_servers()));
}

// Representative-driven mode: the representative multicasts its table as
// an ALLOC. An unconfigured group injected before that must neither reach
// the table nor the ALLOC, which stays in group-name order.
TEST(BalanceInput, AllocAfterUnconfiguredGroupStaysNameOrdered) {
  auto config = testing::test_config(6);
  config.representative_driven = true;
  testing::WamCluster c(3, config);
  std::vector<BalanceMsgV2> allocs;
  c.fabric.set_tap([&](net::SegmentId, const net::Frame& f) {
    try {
      auto ip = net::Ipv4Packet::decode(f.payload);
      if (ip.protocol != net::kProtoUdp) return;
      auto msg = gcs::decode(net::UdpDatagram::decode(ip.payload).payload);
      const gcs::DataMessage* data = std::get_if<gcs::DataMessage>(&msg);
      if (const auto* fwd = std::get_if<gcs::Forward>(&msg)) data = &fwd->data;
      if (data == nullptr || data->kind != gcs::DataKind::kClientPayload ||
          peek_type(data->payload) != WamMsgType::kAllocV2) {
        return;
      }
      allocs.push_back(decode_alloc_v2(data->payload));
    } catch (const std::exception&) {
      // not a GCS frame
    }
  });
  c.start_wam();
  c.run(sim::seconds(5.0));
  c.expect_correctness({0, 1, 2}, "initial");
  ASSERT_FALSE(allocs.empty()) << "the initial GATHER sends an ALLOC";

  gcs::Client injector("injector", gcs::ClientCallbacks{});
  ASSERT_TRUE(injector.connect(*c.daemons[0]));
  const auto& group = c.wams[0]->config().group;
  const auto tag = ViewTag::of(*c.wams[0]->view());
  const auto names = c.wams[0]->config().group_names();
  // A BALANCE that hands the first group to the injector (a non-member)
  // and names an unconfigured group that sorts before every configured
  // one...
  BalanceMsgV2 balance;
  balance.view = tag;
  const auto me = injector.self();
  balance.allocation.emplace_back(intern_group("0-unconfigured"),
                                  std::make_pair(me.daemon.value(), me.client));
  for (const auto& n : names) {
    auto id = intern_group(n);
    auto owner = n == names.front() ? me : *c.wams[0]->table().owner(id);
    balance.allocation.emplace_back(
        id, std::make_pair(owner.daemon.value(), owner.client));
  }
  injector.multicast(group, encode_balance_v2(balance));
  c.run(sim::seconds(1.0));
  for (const auto& w : c.wams) {
    EXPECT_EQ(w->table().size(), names.size());
  }

  // ...then a NOTIFY fencing that group: its "owner" drops the claim, and
  // the representative re-allocates the hole and multicasts an ALLOC of
  // its whole table.
  NotifyMsg notify;
  notify.view = tag;
  notify.group = names.front();
  notify.fenced = true;
  allocs.clear();
  injector.multicast(group, encode_notify(notify));
  c.run(sim::seconds(1.0));
  injector.disconnect();
  c.run(sim::seconds(5.0));

  ASSERT_FALSE(allocs.empty()) << "the NOTIFY must trigger an ALLOC";
  for (const auto& alloc : allocs) {
    std::vector<std::string> sent;
    for (const auto& [id, owner] : alloc.allocation) {
      sent.push_back(group_name(id));
    }
    EXPECT_EQ(sent, names) << "ALLOC must list exactly the configured "
                              "groups, in name order";
  }
  c.expect_correctness({0, 1, 2}, "after the NOTIFY");
}

}  // namespace
}  // namespace wam::wackamole
