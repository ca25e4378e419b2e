#include "wackamole/vip_table.hpp"

#include <algorithm>

namespace wam::wackamole {

std::uint64_t VipTable::entry_hash(GroupId id, const gcs::MemberId& member) {
  // Identity fields only (daemon ip, client id) — matches operator== and
  // MemberIdHash; the informational name must not perturb the checksum.
  std::uint64_t h = (static_cast<std::uint64_t>(member.daemon.value()) << 32) |
                    static_cast<std::uint64_t>(member.client);
  h ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(id) + 1);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

void VipTable::link(GroupId id, const gcs::MemberId& member) {
  members_[member].insert(id);
}

void VipTable::unlink(GroupId id, const gcs::MemberId& member) {
  auto it = members_.find(member);
  if (it == members_.end()) return;
  it->second.erase(id);
  if (it->second.empty()) members_.erase(it);
}

std::optional<gcs::MemberId> VipTable::owner(GroupId id) const {
  auto it = owners_.find(id);
  if (it == owners_.end()) return std::nullopt;
  return it->second;
}

void VipTable::set_owner(GroupId id, const gcs::MemberId& member) {
  auto [it, inserted] = owners_.try_emplace(id, member);
  if (!inserted) {
    if (it->second == member) {
      it->second = member;  // refresh the informational name
      return;
    }
    unlink(id, it->second);
    checksum_ ^= entry_hash(id, it->second);
    it->second = member;
  }
  checksum_ ^= entry_hash(id, member);
  link(id, member);
}

void VipTable::clear_owner(GroupId id) {
  auto it = owners_.find(id);
  if (it == owners_.end()) return;
  unlink(id, it->second);
  checksum_ ^= entry_hash(id, it->second);
  owners_.erase(it);
}

std::size_t VipTable::load_of(const gcs::MemberId& member) const {
  auto it = members_.find(member);
  return it == members_.end() ? 0 : it->second.size();
}

std::vector<std::string> VipTable::owned_by(const gcs::MemberId& member) const {
  std::vector<std::string> out;
  auto it = members_.find(member);
  if (it == members_.end()) return out;
  out.reserve(it->second.size());
  for (GroupId id : it->second) out.push_back(group_name(id));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> VipTable::uncovered(
    const std::vector<std::string>& all) const {
  std::vector<std::string> out;
  for (const auto& name : all) {
    auto id = find_group_id(name);
    if (!id || owners_.count(*id) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::string, gcs::MemberId> VipTable::owners() const {
  std::map<std::string, gcs::MemberId> out;
  for (const auto& [id, member] : owners_) out.emplace(group_name(id), member);
  return out;
}

VipTable::ClaimResult VipTable::claim(GroupId id, const gcs::MemberId& claimant,
                                      const gcs::GroupView& view) {
  auto it = owners_.find(id);
  if (it == owners_.end()) {
    owners_.emplace(id, claimant);
    checksum_ ^= entry_hash(id, claimant);
    link(id, claimant);
    return {true, std::nullopt};
  }
  if (it->second == claimant) return {true, std::nullopt};

  // Conflict: the member later in the uniquely ordered list keeps the group.
  int existing_rank = view.rank_of(it->second);
  int claimant_rank = view.rank_of(claimant);
  if (claimant_rank > existing_rank) {
    auto dropped = it->second;
    unlink(id, dropped);
    checksum_ ^= entry_hash(id, dropped) ^ entry_hash(id, claimant);
    it->second = claimant;
    link(id, claimant);
    return {true, dropped};
  }
  return {false, claimant};
}

bool VipTable::verify_checksum() const {
  std::uint64_t expect = 0;
  for (const auto& [id, member] : owners_) expect ^= entry_hash(id, member);
  return expect == checksum_;
}

bool VipTable::verify_index() const {
  std::size_t indexed = 0;
  for (const auto& [member, ids] : members_) {
    if (ids.empty()) return false;  // unlink() always drops empty sets
    indexed += ids.size();
    for (GroupId id : ids) {
      auto it = owners_.find(id);
      if (it == owners_.end() || !(it->second == member)) return false;
    }
  }
  return indexed == owners_.size();
}

void VipTable::rebuild() {
  members_.clear();
  checksum_ = 0;
  for (const auto& [id, member] : owners_) {
    members_[member].insert(id);
    checksum_ ^= entry_hash(id, member);
  }
}

void VipTable::chaos_set_owner_unchecked(GroupId id,
                                         const gcs::MemberId& member) {
  owners_[id] = member;  // deliberately skips unlink/link and the checksum
}

void VipTable::chaos_corrupt_index_entry(GroupId id,
                                         const gcs::MemberId& bogus) {
  auto it = owners_.find(id);
  if (it != owners_.end() && load_of(it->second) > 0) {
    unlink(id, it->second);  // indexed entry vanishes; owner map keeps it
  } else {
    link(id, bogus);  // phantom entry the owner map never had
  }
}

std::string VipTable::describe() const {
  // Single pass over a name-sorted snapshot with the exact capacity
  // reserved up front — no quadratic append-to-growing-temporary churn.
  std::vector<std::pair<const std::string*, std::string>> entries;
  entries.reserve(owners_.size());
  for (const auto& [id, member] : owners_) {
    entries.emplace_back(&group_name(id), member.to_string());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::size_t total = 2;  // braces
  for (const auto& [name, owner] : entries) {
    total += name->size() + 2 + owner.size() + 2;  // "->" and ", "
  }
  std::string out;
  out.reserve(total);
  out += '{';
  bool first = true;
  for (const auto& [name, owner] : entries) {
    if (!first) out += ", ";
    first = false;
    out += *name;
    out += "->";
    out += owner;
  }
  out += '}';
  return out;
}

}  // namespace wam::wackamole
