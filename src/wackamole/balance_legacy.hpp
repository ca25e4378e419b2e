// Reference implementations of Reallocate_IPs() and Balance_IPs(), kept
// verbatim from before the indexed fast path existed. They are the oracle
// half of the equivalence suite (tests/wam_balance_equivalence_test.cpp)
// and the honest "before" side of the placement micro-benchmarks: the fast
// implementations in balance.cpp must reproduce these decisions
// byte-for-byte on every input.
//
// Not part of libwam: balance_legacy.cpp is compiled only into those two
// targets (wam_balance_equivalence_test and bench_micro_core).
//
// Do not optimise this file. Its value is that it stays the simple,
// obviously-correct O(V*M) formulation of the paper's procedures.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "gcs/types.hpp"
#include "wackamole/balance.hpp"
#include "wackamole/vip_table.hpp"

namespace wam::wackamole {

/// The original O(V*M) Reallocate_IPs(). Same contract as reallocate_ips().
std::map<std::string, gcs::MemberId> legacy_reallocate_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members);

/// The original O(V*M) Balance_IPs(). Same contract as balance_ips().
std::map<std::string, gcs::MemberId> legacy_balance_ips(
    const std::vector<std::string>& all_groups, const VipTable& table,
    const std::vector<MemberInfo>& members);

}  // namespace wam::wackamole
