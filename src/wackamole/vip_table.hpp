// The current_table of the Wackamole algorithm: which member covers which
// VIP group, plus the conflict-resolution rule of ResolveConflicts().
//
// Indexed representation: the owner map is keyed by interned GroupId and a
// member->owned-groups index is maintained incrementally on every
// set_owner/clear_owner/claim, so load_of() is O(1) and owned_by() is
// O(k log k) instead of the old full-map rescans. Everything that leaves
// the table in bulk (owners(), owned_by(), uncovered(), describe()) is
// sorted by group NAME — GroupIds are process-local first-use ids and must
// never order deterministic output.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gcs/types.hpp"
#include "wackamole/group_ids.hpp"

namespace wam::wackamole {

/// Hash over the identity fields of MemberId (daemon ip, client id) — the
/// informational name is ignored, matching operator==.
struct MemberIdHash {
  std::size_t operator()(const gcs::MemberId& m) const {
    auto key = (static_cast<std::uint64_t>(m.daemon.value()) << 32) |
               static_cast<std::uint64_t>(m.client);
    return std::hash<std::uint64_t>()(key);
  }
};

class VipTable {
 public:
  void clear() {
    owners_.clear();
    members_.clear();
    checksum_ = 0;
  }

  // Entries are keyed by interned GroupId; callers holding a name intern
  // it at the call site (group_ids.hpp).
  [[nodiscard]] std::optional<gcs::MemberId> owner(GroupId id) const;
  void set_owner(GroupId id, const gcs::MemberId& member);
  void clear_owner(GroupId id);
  /// Raw owner map; iteration order is arbitrary — sort by name before
  /// producing any deterministic output from it.
  [[nodiscard]] const std::unordered_map<GroupId, gcs::MemberId>& owner_ids()
      const {
    return owners_;
  }
  [[nodiscard]] std::size_t size() const { return owners_.size(); }

  /// Number of groups owned by `member` — O(1).
  [[nodiscard]] std::size_t load_of(const gcs::MemberId& member) const;
  /// Groups owned by `member`, sorted by name — O(k log k).
  [[nodiscard]] std::vector<std::string> owned_by(
      const gcs::MemberId& member) const;
  /// Groups in `all` with no owner, sorted.
  [[nodiscard]] std::vector<std::string> uncovered(
      const std::vector<std::string>& all) const;
  /// Name-sorted snapshot of the full table (materialized per call; hot
  /// paths should use owner_ids() or the id lookups instead).
  [[nodiscard]] std::map<std::string, gcs::MemberId> owners() const;

  /// ResolveConflicts() for one claim: `claimant` reports covering `group`.
  /// If another member already claims it, the paper's deterministic rule
  /// applies — the claimant that appears EARLIER in the membership list
  /// releases the address (Lemma 1's proof: "p ... will release vip if p
  /// appears in the membership list of S' before q"). Returns which member,
  /// if any, lost its claim.
  struct ClaimResult {
    bool claimed = false;  // claimant holds the group after the call
    std::optional<gcs::MemberId> dropped;
  };
  ClaimResult claim(GroupId id, const gcs::MemberId& claimant,
                    const gcs::GroupView& view);

  [[nodiscard]] std::string describe() const;

  // ---- Guarded-state hooks (self-stabilization layer) ----
  /// Incrementally maintained XOR checksum over every (group, owner)
  /// entry. O(1) to read; any single corrupted entry flips it.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  /// Recompute the checksum from owners_ and compare — O(V).
  [[nodiscard]] bool verify_checksum() const;
  /// Recompute the member->groups index from owners_ and compare — O(V).
  /// Detects index drift that the checksum (owners_-only) cannot see.
  [[nodiscard]] bool verify_index() const;
  /// Discard and rebuild the derived state (index + checksum) from the
  /// owner map. The owner map itself is the recovery root here; entries
  /// that are wrong against the VIEW are the daemon's job to fence.
  void rebuild();

  /// Chaos backdoors: corrupt state without maintaining the invariants —
  /// exactly what a stray write would do. Test/injection use only.
  /// Overwrites the owner entry, bypassing index and checksum updates.
  void chaos_set_owner_unchecked(GroupId id, const gcs::MemberId& member);
  /// Desync the member index only: drop the indexed entry for `id` when
  /// present, otherwise insert a phantom entry under `bogus`.
  void chaos_corrupt_index_entry(GroupId id, const gcs::MemberId& bogus);

 private:
  void link(GroupId id, const gcs::MemberId& member);
  void unlink(GroupId id, const gcs::MemberId& member);
  static std::uint64_t entry_hash(GroupId id, const gcs::MemberId& member);

  std::unordered_map<GroupId, gcs::MemberId> owners_;
  /// member -> groups it owns; load_of() is the set size.
  std::unordered_map<gcs::MemberId, std::unordered_set<GroupId>, MemberIdHash>
      members_;
  std::uint64_t checksum_ = 0;
};

}  // namespace wam::wackamole
