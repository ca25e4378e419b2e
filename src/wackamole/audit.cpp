#include "wackamole/audit.hpp"

#include <algorithm>

#include "wackamole/daemon.hpp"

namespace wam::wackamole {

const char* audit_check_name(AuditCheck c) {
  switch (c) {
    case AuditCheck::kTableChecksum: return "table-checksum";
    case AuditCheck::kTableIndex: return "table-index";
    case AuditCheck::kViewTag: return "view-tag";
    case AuditCheck::kOwnerNotInView: return "owner-not-in-view";
    case AuditCheck::kQuarantineUnknown: return "quarantine-unknown";
  }
  return "?";
}

std::vector<AuditFinding> StateAuditor::audit(const Daemon& daemon) {
  std::vector<AuditFinding> out;
  const auto& table = daemon.table();

  if (!table.verify_checksum()) {
    out.push_back({AuditCheck::kTableChecksum, "",
                   "owner-map checksum mismatch over " +
                       std::to_string(table.size()) + " entries"});
  }
  if (!table.verify_index()) {
    out.push_back({AuditCheck::kTableIndex, "",
                   "member index disagrees with the owner map"});
  }

  const auto& view = daemon.view();
  if (view) {
    if (daemon.view_tag() != ViewTag::of(*view)) {
      out.push_back({AuditCheck::kViewTag, "",
                     "cached tag " + daemon.view_tag().to_string() +
                         " vs installed view " +
                         ViewTag::of(*view).to_string()});
    }
    // Deterministic sweep order: findings come out sorted by group name,
    // never by process-local GroupId or hash order.
    std::vector<std::pair<const std::string*, const gcs::MemberId*>> entries;
    entries.reserve(table.owner_ids().size());
    for (const auto& [id, member] : table.owner_ids()) {
      entries.emplace_back(&group_name(id), &member);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return *a.first < *b.first; });
    for (const auto& [name, member] : entries) {
      bool in_view = std::any_of(
          view->members.begin(), view->members.end(),
          [member](const gcs::MemberId& m) { return m == *member; });
      if (!in_view) {
        out.push_back({AuditCheck::kOwnerNotInView, *name,
                       "owner " + member->to_string() + " not in view"});
      }
    }
  }

  const auto configured = daemon.config().vip_groups.size();
  for (auto pos : daemon.quarantined_positions()) {
    if (pos >= configured) {
      out.push_back({AuditCheck::kQuarantineUnknown, "",
                     "quarantined position " + std::to_string(pos) +
                         " is not a configured group"});
    }
  }
  return out;
}

}  // namespace wam::wackamole
