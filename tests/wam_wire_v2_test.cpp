// Wire format v2: compact STATE/BALANCE/ALLOC bodies (per-message name
// table + varint indices). Pins round-trips, the cross-process
// determinism of the encoded bytes (sorted by NAME, never by process-local
// GroupId), rejection of the retired v1 codes, and an absolute byte budget
// per entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "wackamole/group_ids.hpp"
#include "wackamole/wire.hpp"

namespace wam::wackamole {
namespace {

StateMsgV2 sample_state() {
  StateMsgV2 m;
  m.view = ViewTag{7, 0x0a000001, 42};
  m.mature = true;
  m.weight = 3;
  // Overlapping lists: the name table must dedup across all three.
  m.owned = {intern_group("vip-alpha"), intern_group("vip-beta"),
             intern_group("vip-gamma")};
  m.preferred = {intern_group("vip-beta"), intern_group("vip-delta")};
  m.quarantined = {intern_group("vip-alpha")};
  return m;
}

BalanceMsgV2 sample_balance() {
  BalanceMsgV2 m;
  m.view = ViewTag{9, 0x0a000002, 5};
  // Two distinct owners across four groups: the owner table dedupes.
  m.allocation = {
      {intern_group("vip-alpha"), {0x0a000001u, 1u}},
      {intern_group("vip-beta"), {0x0a000002u, 2u}},
      {intern_group("vip-delta"), {0x0a000001u, 1u}},
      {intern_group("vip-gamma"), {0x0a000002u, 2u}},
  };
  return m;
}

TEST(WamWireV2, StateRoundTrips) {
  auto m = sample_state();
  auto d = decode_state_v2(encode_state_v2(m));
  EXPECT_EQ(d.view, m.view);
  EXPECT_EQ(d.mature, m.mature);
  EXPECT_EQ(d.weight, m.weight);
  EXPECT_EQ(d.owned, m.owned);
  EXPECT_EQ(d.preferred, m.preferred);
  EXPECT_EQ(d.quarantined, m.quarantined);
}

TEST(WamWireV2, BalanceAndAllocRoundTrip) {
  auto m = sample_balance();
  auto db = decode_balance_v2(encode_balance_v2(m));
  EXPECT_EQ(db.view, m.view);
  EXPECT_EQ(db.allocation, m.allocation);
  auto da = decode_alloc_v2(encode_alloc_v2(m));
  EXPECT_EQ(da.allocation, m.allocation);
}

TEST(WamWireV2, PeekTypeSeesTheNewCodes) {
  EXPECT_EQ(peek_type(encode_state_v2(sample_state())), WamMsgType::kStateV2);
  EXPECT_EQ(peek_type(encode_balance_v2(sample_balance())),
            WamMsgType::kBalanceV2);
  EXPECT_EQ(peek_type(encode_alloc_v2(sample_balance())),
            WamMsgType::kAllocV2);
}

// The retired v1 codes still peek (an old peer's message is not garbage)
// but no decoder accepts them, and no decoder accepts another's code.
TEST(WamWireV2, RetiredCodesAreRejected) {
  for (auto code : {WamMsgType::kState, WamMsgType::kBalance,
                    WamMsgType::kAlloc}) {
    util::Bytes bytes = encode_state_v2(sample_state());
    bytes[0] = static_cast<std::uint8_t>(code);
    EXPECT_EQ(peek_type(bytes), code);
    EXPECT_THROW((void)decode_state_v2(bytes), util::DecodeError);
    EXPECT_THROW((void)decode_balance_v2(bytes), util::DecodeError);
    EXPECT_THROW((void)decode_alloc_v2(bytes), util::DecodeError);
  }
  EXPECT_THROW((void)decode_state_v2(encode_balance_v2(sample_balance())),
               util::DecodeError);
  EXPECT_THROW((void)decode_balance_v2(encode_alloc_v2(sample_balance())),
               util::DecodeError);
}

// The encoded bytes must not depend on intern order (GroupIds are
// process-local and vary between processes): the name table lists names in
// first-appearance order over the message's LISTS, a pure function of the
// message content.
TEST(WamWireV2, BytesAreInternOrderIndependent) {
  // These names are interned here for the first time, in reverse name
  // order, giving them ids in the "wrong" relative order.
  auto z = intern_group("zz-order-probe");
  auto a = intern_group("aa-order-probe");
  ASSERT_LT(z, a) << "test setup: zz must have the smaller id";

  StateMsgV2 m;
  m.view = ViewTag{1, 0x0a000001, 1};
  m.owned = {a, z};
  auto bytes = encode_state_v2(m);

  // Decode resolves through the name table: ids come back in the order the
  // LIST encodes, which preserves the sender's list order.
  auto d = decode_state_v2(bytes);
  EXPECT_EQ(d.owned, m.owned);

  // The name-table region follows list order, not id order: "aa..."
  // appears first in the raw bytes even though its id is larger. Each
  // name appears exactly once.
  std::string raw(bytes.begin(), bytes.end());
  auto pos_a = raw.find("aa-order-probe");
  auto pos_z = raw.find("zz-order-probe");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_z, std::string::npos);
  EXPECT_LT(pos_a, pos_z);
  EXPECT_EQ(raw.find("aa-order-probe", pos_a + 1), std::string::npos);

  // Same content re-encoded -> identical bytes (what the simulation's
  // byte-identical replay checks rely on).
  EXPECT_EQ(encode_state_v2(m), bytes);
}

TEST(WamWireV2, CompactBodiesFitByteBudgetAtScale) {
  // 64 members x 512 groups with realistic heap-allocated names: the
  // regime the compact format exists for. Each name travels once; every
  // further mention of a group costs at most 2 bytes (a varint index
  // below 16384).
  constexpr int kGroups = 512;
  StateMsgV2 s;
  s.view = ViewTag{3, 0x0a000001, 7};
  BalanceMsgV2 b;
  b.view = s.view;
  std::size_t names = 0;  // total vstr bytes of the distinct names
  for (int i = 0; i < kGroups; ++i) {
    auto name = "customer-vip-group-10-20-" + std::to_string(i) +
                ".production.example.net";
    names += 1 + name.size();  // names are < 128 bytes: 1-byte prefix
    auto id = intern_group(name);
    s.owned.push_back(id);
    s.preferred.push_back(id);
    s.quarantined.push_back(id);
    b.allocation.emplace_back(
        id, std::make_pair(0x0a000000u + (i % 64), 1u + (i % 64)));
  }
  // Fixed part: type, view tag, mature flag, weight, four list/table
  // counts.
  constexpr std::size_t kStateHeader = 1 + 20 + 1 + 1 + 4 * 2;
  EXPECT_LE(encode_state_v2(s).size(),
            kStateHeader + names + 2 * 3 * static_cast<std::size_t>(kGroups))
      << "STATE must carry each name once plus <= 2 bytes per list entry";
  // Fixed part: type, view tag, owner and entry counts.
  constexpr std::size_t kBalanceHeader = 1 + 20 + 2 * 2;
  EXPECT_LE(encode_balance_v2(b).size(),
            kBalanceHeader + 8 * 64 + names +
                2 * static_cast<std::size_t>(kGroups))
      << "BALANCE must carry 8 bytes per owner plus name and <= 2 bytes "
         "per entry";
}

TEST(WamWireV2, EmptyListsRoundTrip) {
  StateMsgV2 s;
  s.view = ViewTag{2, 0x0a000004, 1};
  s.mature = false;
  s.weight = 1;
  auto d = decode_state_v2(encode_state_v2(s));
  EXPECT_TRUE(d.owned.empty());
  EXPECT_TRUE(d.preferred.empty());
  EXPECT_TRUE(d.quarantined.empty());

  BalanceMsgV2 b;
  b.view = s.view;
  EXPECT_TRUE(decode_balance_v2(encode_balance_v2(b)).allocation.empty());
}

}  // namespace
}  // namespace wam::wackamole
