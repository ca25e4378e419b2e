#include "wackamole/balance_legacy.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wam::wackamole {

namespace {

std::vector<const MemberInfo*> mature_members(
    const std::vector<MemberInfo>& members) {
  std::vector<const MemberInfo*> out;
  for (const auto& m : members) {
    if (m.mature) out.push_back(&m);
  }
  return out;
}

}  // namespace

std::map<std::string, gcs::MemberId> legacy_reallocate_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members) {
  std::map<std::string, gcs::MemberId> assignments;
  auto mature = mature_members(members);
  if (mature.empty()) return assignments;

  // Working loads: current table plus assignments made in this pass.
  std::map<gcs::MemberId, std::size_t> load;
  for (const auto& m : mature) load[m->id] = table.load_of(m->id);

  auto holes = table.uncovered(all_groups);
  for (const auto& group : holes) {
    // Score: (prefers the group, weight-normalized load, membership
    // order). `mature` is already in membership order, so a strict '<'
    // comparison keeps the earlier member on ties. Weight-normalized load
    // comparison uses cross-multiplication to stay in exact integers.
    auto better = [&](const MemberInfo* a, const MemberInfo* b) {
      bool pa = a->preferred.count(group) > 0;
      bool pb = b->preferred.count(group) > 0;
      if (pa != pb) return pa;
      auto la = static_cast<long>(load[a->id]) * b->weight;
      auto lb = static_cast<long>(load[b->id]) * a->weight;
      return la < lb;
    };
    // A quarantine for ANY group marks the member's enforcement layer
    // suspect: each new assignment it fails burns a retry budget and rips
    // another coverage hole, so quarantine-free members take new work
    // first. Then members merely fenced for OTHER groups, and only when
    // every mature member is fenced for this very group is it forced onto
    // one anyway (someone must keep retrying rather than leave the address
    // permanently dark).
    auto pick = [&](int strictness) {
      const MemberInfo* best = nullptr;
      for (const auto* candidate : mature) {
        if (strictness >= 2 && !candidate->quarantined.empty()) continue;
        if (strictness >= 1 && candidate->quarantined.count(group) > 0) {
          continue;
        }
        if (best == nullptr || better(candidate, best)) best = candidate;
      }
      return best;
    };
    const auto* best = pick(2);
    if (best == nullptr) best = pick(1);
    if (best == nullptr) best = pick(0);  // forced coverage
    assignments.emplace(group, best->id);
    ++load[best->id];
  }
  return assignments;
}

std::map<std::string, gcs::MemberId> legacy_balance_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members) {
  std::map<std::string, gcs::MemberId> allocation;
  auto mature = mature_members(members);
  if (mature.empty()) return allocation;

  // Target loads proportional to capacity weights: floor(n*w/W) each,
  // the remainder distributed by largest fractional part (ties broken by
  // membership order) — the classic largest-remainder method, fully
  // deterministic.
  std::size_t n = all_groups.size();
  long total_weight = 0;
  for (const auto* mi : mature) total_weight += mi->weight;
  // Weights come off the wire; a fleet whose mature weights sum to zero
  // (or negative) must degrade to equal shares, not divide by zero. The
  // fast path carries the identical guard.
  const bool equal_shares = total_weight <= 0;
  if (equal_shares) total_weight = static_cast<long>(mature.size());
  std::map<gcs::MemberId, std::size_t> target;
  std::vector<std::pair<long, std::size_t>> remainders;  // (-rem, index)
  std::size_t assigned_total = 0;
  for (std::size_t i = 0; i < mature.size(); ++i) {
    long num = static_cast<long>(n) * (equal_shares ? 1 : mature[i]->weight);
    auto base = static_cast<std::size_t>(num / total_weight);
    target[mature[i]->id] = base;
    assigned_total += base;
    remainders.emplace_back(-(num % total_weight), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t k = 0; assigned_total < n; ++k) {
    ++target[mature[remainders[k % remainders.size()].second]->id];
    ++assigned_total;
  }

  // Start from the current assignment, evicting from overloaded members.
  // Non-preferred groups are evicted before preferred ones, in reverse
  // name order, so the retained set is deterministic.
  std::map<gcs::MemberId, std::size_t> load;
  std::vector<std::string> homeless;
  std::map<gcs::MemberId, std::vector<std::string>> held;
  for (const auto& group : all_groups) {
    auto owner = table.owner(intern_group(group));
    // The current owner keeps the group only if it is mature and not
    // quarantined for it — a fenced holder cannot enforce the binding, so
    // the group re-enters placement like any other homeless group.
    bool owner_mature =
        owner && std::any_of(mature.begin(), mature.end(),
                             [&](const MemberInfo* mi) {
                               return mi->id == *owner &&
                                      mi->quarantined.count(group) == 0;
                             });
    if (owner_mature) {
      held[*owner].push_back(group);
    } else {
      homeless.push_back(group);
    }
  }
  // Eviction order when a member is over target: give up groups that some
  // OTHER member prefers first, keep own preferred groups longest.
  auto preferred_by_other = [&](const gcs::MemberId& holder,
                                const std::string& group) {
    for (const auto* mi : mature) {
      if (mi->id == holder) continue;
      if (mi->preferred.count(group) > 0) return true;
    }
    return false;
  };
  for (const auto* mi : mature) {
    auto& groups = held[mi->id];
    // Keep rank: own-preferred (0) < neutral (1) < other-preferred (2).
    auto keep_rank = [&](const std::string& g) {
      if (mi->preferred.count(g) > 0) return 0;
      return preferred_by_other(mi->id, g) ? 2 : 1;
    };
    std::sort(groups.begin(), groups.end(),
              [&](const std::string& a, const std::string& b) {
                int ra = keep_rank(a);
                int rb = keep_rank(b);
                if (ra != rb) return ra < rb;
                return a < b;
              });
    while (groups.size() > target[mi->id]) {
      homeless.push_back(groups.back());
      groups.pop_back();
    }
    for (const auto& g : groups) allocation.emplace(g, mi->id);
    load[mi->id] = groups.size();
  }

  // Place the homeless groups: preference first, then most free capacity,
  // then membership order.
  std::sort(homeless.begin(), homeless.end());
  for (const auto& group : homeless) {
    auto key = [&](const MemberInfo* mi) {
      return std::make_pair(mi->preferred.count(group) == 0, load[mi->id]);
    };
    auto place = [&](bool respect_target, int strictness) {
      const MemberInfo* best = nullptr;
      for (const auto* candidate : mature) {
        if (respect_target && load[candidate->id] >= target[candidate->id]) {
          continue;
        }
        if (strictness >= 2 && !candidate->quarantined.empty()) continue;
        if (strictness >= 1 && candidate->quarantined.count(group) > 0) {
          continue;
        }
        if (best == nullptr || key(candidate) < key(best)) best = candidate;
      }
      return best;
    };
    // A member quarantined for ANY group has a suspect enforcement layer:
    // handing it fresh work guarantees another retry-budget burn and a
    // transient coverage hole when it fences. An over-target healthy
    // member is merely imbalanced, so overload one of those first — the
    // suspect member only receives a group when no quarantine-free member
    // exists at all.
    const auto* best = place(true, 2);
    if (best == nullptr) best = place(false, 2);
    if (best == nullptr) best = place(true, 1);
    if (best == nullptr) best = place(false, 1);
    // Forced coverage: every mature member is fenced for this group.
    if (best == nullptr) best = place(false, 0);
    WAM_ASSERT(best != nullptr);  // targets sum to n by construction
    allocation.emplace(group, best->id);
    ++load[best->id];
  }
  WAM_ENSURES(allocation.size() == all_groups.size());
  return allocation;
}

}  // namespace wam::wackamole
