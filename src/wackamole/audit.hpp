// Self-stabilization, detection side: cheap invariant checks over a
// wackamole daemon's hot state. A transient corruption — a stray write
// into the VIP table, a desynced member index, a stale view incarnation —
// would otherwise violate Properties 1/2 silently and forever; the
// auditor turns it into a finding the daemon can heal from (rebuild,
// fence, or a full resync from peers' STATE_MSGs — see daemon.cpp).
//
// Checks are read-only and O(V): suitable for a periodic timer and for
// protocol-message boundaries.
#pragma once

#include <string>
#include <vector>

#include "wackamole/group_ids.hpp"

namespace wam::wackamole {

class Daemon;

enum class AuditCheck {
  /// VipTable's incremental XOR checksum disagrees with its entries.
  kTableChecksum,
  /// VipTable's member->groups index disagrees with the owner map.
  kTableIndex,
  /// Cached ViewTag disagrees with the installed group view (a stale or
  /// bit-flipped incarnation: every in-view message would look stale).
  kViewTag,
  /// A table entry names an owner that is not a member of the view.
  kOwnerNotInView,
  /// The quarantine set holds a position outside the configured groups.
  kQuarantineUnknown,
};

const char* audit_check_name(AuditCheck c);

struct AuditFinding {
  AuditCheck check;
  std::string group;  // offending group name, when one is identifiable
  std::string detail;
};

class StateAuditor {
 public:
  /// Sweep every invariant; returns all findings (empty = clean). Pure
  /// read — healing is the daemon's decision, not the auditor's.
  [[nodiscard]] static std::vector<AuditFinding> audit(const Daemon& daemon);
};

}  // namespace wam::wackamole
