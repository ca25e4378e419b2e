#include "wackamole/daemon.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "wackamole/audit.hpp"

namespace wam::wackamole {

namespace {
/// First look-again after a duplicate-address conflict. On a BALANCE round
/// the new owner can apply ALLOC before the old owner has released; the
/// release follows within the same round, so a short re-check closes the
/// gap that a full acquire_backoff would leave uncovered.
constexpr sim::Duration kHandoffRecheck = sim::milliseconds(1);
}  // namespace

const char* wam_state_name(WamState s) {
  switch (s) {
    case WamState::kIdle: return "IDLE";
    case WamState::kRun: return "RUN";
    case WamState::kGather: return "GATHER";
  }
  return "?";
}

void WamCounters::bind(obs::MetricRegistry& registry,
                       const std::string& scope) {
  for_each(*this, [&](const char* name, obs::Counter& c) {
    registry.bind(c, scope + "/" + name);
  });
}

void WamCounters::export_into(obs::MetricRegistry& registry,
                              const std::string& scope) const {
  for_each(*this, [&](const char* name, const obs::Counter& c) {
    registry.counter(scope + "/" + name) = c.value();
  });
}

Daemon::Daemon(sim::Scheduler& sched, Config config, gcs::Daemon& gcs,
               IpManager& ip_manager, sim::Log* log)
    : sched_(sched),
      config_(std::move(config)),
      gcs_(gcs),
      ip_manager_(ip_manager),
      log_(log, "wam/" + gcs.id().to_string()),
      client_("wackamole",
              gcs::ClientCallbacks{
                  [this](const gcs::GroupView& v) { on_membership(v); },
                  [this](const gcs::GroupMessage& m) { on_message(m); },
                  [this] { on_disconnect(); }}),
      groups_(config_.group_names()),
      rng_(gcs.id().value()) {
  config_.validate();
  group_of_.resize(groups_.size());
  config_pos_.reserve(config_.vip_groups.size());
  for (const auto& g : config_.vip_groups) {
    auto pos = *groups_.position_of(intern_group(g.name));
    group_of_[pos] = &g;
    config_pos_.push_back(pos);
  }
  preferred_ids_.reserve(config_.preferred.size());
  for (const auto& name : config_.preferred) {
    preferred_ids_.push_back(intern_group(name));
  }
}

void Daemon::bind_observability(obs::Observability& obs, std::string scope) {
  obs_ = &obs;
  obs_scope_ = std::move(scope);
  counters_.bind(obs.registry, obs_scope_);
}

void Daemon::emit(obs::EventType type,
                  std::vector<std::pair<std::string, std::string>> fields) {
  if (obs_ == nullptr) return;
  obs_->emit(sched_.now(), type, obs_scope_, std::move(fields));
}

void Daemon::enter_state(WamState next) {
  if (state_ == next) return;
  WamState from = state_;
  state_ = next;
  state_since_ = sched_.now();
  emit(obs::EventType::kStateTransition,
       {{"from", wam_state_name(from)}, {"to", wam_state_name(next)}});
}

void Daemon::start() {
  WAM_EXPECTS(!running_);
  running_ = true;
  mature_ = config_.start_mature;
  state_ = WamState::kIdle;
  state_since_ = sched_.now();
  if (client_.connect(gcs_)) {
    client_.join(config_.group);
  } else {
    reconnect_timer_ = sched_.schedule(config_.reconnect_interval,
                                       [this] { reconnect_tick(); });
  }
  if (!mature_) arm_maturity_timer();
  arm_arp_share_timer();
  arm_announce_timer();
  arm_audit_timer();
  log_.info("wackamole starting (%s)", mature_ ? "mature" : "immature");
}

void Daemon::graceful_shutdown() {
  if (!running_) return;
  // Detect-only sweep: corruption present at shutdown is still reported
  // (the final campaign checkpoint reads the counters), but the state is
  // about to be discarded, so nothing is healed.
  run_audit(AuditPoint::kShutdown);
  running_ = false;
  balance_timer_.cancel();
  maturity_timer_.cancel();
  arp_share_timer_.cancel();
  announce_timer_.cancel();
  reconnect_timer_.cancel();
  audit_timer_.cancel();
  resync_timer_.cancel();
  resync_pending_ = false;
  cancel_pending_acquires();
  for (auto& [pos, p] : pending_releases_) p.timer.cancel();
  pending_releases_.clear();
  for (auto& [pos, t] : cooldown_timers_) t.cancel();
  cooldown_timers_.clear();
  if (client_.connected()) {
    // Leaving the group is a lightweight membership change: the survivors
    // reallocate within milliseconds, long before any fault detector would
    // have noticed us missing.
    client_.leave(config_.group);
  }
  release_everything("graceful_shutdown");
  if (client_.connected()) client_.disconnect();
  enter_state(WamState::kIdle);
  view_.reset();
  table_.clear();
  log_.info("graceful shutdown complete");
}

std::vector<std::string> Daemon::owned() const {
  std::vector<std::string> out;
  for (std::uint32_t p = 0; p < groups_.size(); ++p) {
    if (ip_manager_.holds(groups_.ids[p])) out.push_back(groups_.names[p]);
  }
  return out;
}

std::vector<std::string> Daemon::quarantined_groups() const {
  std::vector<std::string> out;
  out.reserve(quarantined_.size());
  for (auto pos : quarantined_) out.push_back(groups_.names[pos]);
  return out;
}

bool Daemon::quarantined(const std::string& group) const {
  auto pos = position_of(group);
  return pos && quarantined_.count(*pos) > 0;
}

std::optional<std::uint32_t> Daemon::position_of(
    const std::string& name) const {
  auto id = find_group_id(name);
  if (!id) return std::nullopt;  // never interned => not configured
  return groups_.position_of(*id);
}

bool Daemon::is_representative() const {
  if (!view_ || view_->members.empty() || !client_.connected()) return false;
  return view_->members.front() == client_.self();
}

std::optional<gcs::MemberId> Daemon::self() const {
  if (!client_.connected()) return std::nullopt;
  return client_.self();
}

// ------------------------------------------------------------ callbacks ----

void Daemon::on_membership(const gcs::GroupView& gv) {
  if (!running_) return;
  // EVS transitional signals are informational; the algorithm acts only on
  // regular membership installations (the paper's VIEW_CHANGE events).
  if (gv.transitional) return;
  // Audit BEFORE the wipe below: any corruption still present is detected
  // (and counted) here, never silently erased by the rebuild — the
  // reconvergence oracle's "every injected corruption is detected"
  // obligation holds unconditionally.
  run_audit(AuditPoint::kPreWipe);
  ++counters_.view_changes;
  if (log_.would_log(sim::LogLevel::kInfo)) {
    log_.info("VIEW_CHANGE: %s", gv.to_string().c_str());
  }
  // Algorithm 1 lines 1-4 / Algorithm 2 lines 7-9: clear the table (the
  // addresses we actually hold are our "old table" knowledge), send a
  // STATE_MSG tagged with the new view, and enter GATHER.
  view_ = gv;
  view_tag_ = ViewTag::of(gv);
  table_.clear();
  received_.clear();
  info_.clear();
  balance_timer_.cancel();
  // In-flight acquire retries are moot: the new GATHER recomputes the
  // allocation from scratch (quarantine survives — it rides in STATE_MSGs).
  cancel_pending_acquires();
  // Enter GATHER before multicasting: local delivery is synchronous, so our
  // own STATE_MSG can arrive inside the multicast call below.
  enter_state(WamState::kGather);
  send_state_msg();
}

void Daemon::on_message(const gcs::GroupMessage& gm) {
  if (!running_ || gm.group != config_.group) return;
  WamMsgType type;
  try {
    type = peek_type(gm.payload);
  } catch (const util::DecodeError&) {
    log_.warn("undecodable message from %s", gm.sender.to_string().c_str());
    return;
  }
  try {
    switch (type) {
      case WamMsgType::kState:
      case WamMsgType::kBalance:
      case WamMsgType::kAlloc:
        // Retired wire-v1 codes: nothing decodes them any more.
        throw util::DecodeError("retired wire v1 message");
      case WamMsgType::kStateV2:
        handle_state_msg(gm.sender, decode_state_v2(gm.payload));
        break;
      case WamMsgType::kBalanceV2:
        handle_balance_msg(decode_balance_v2(gm.payload));
        break;
      case WamMsgType::kAllocV2:
        handle_balance_msg(decode_alloc_v2(gm.payload));
        break;
      case WamMsgType::kArpShare: {
        auto share = decode_arp_share(gm.payload);
        if (gm.sender.daemon == gcs_.id()) break;  // our own gossip
        for (auto ip : share.ips) {
          ip_manager_.add_notify_target(net::Ipv4Address(ip));
        }
        break;
      }
      case WamMsgType::kNotify:
        handle_notify(gm.sender, decode_notify(gm.payload));
        break;
      case WamMsgType::kAfterLast_:
        break;  // unreachable: peek_type() rejects out-of-range codes
    }
  } catch (const util::DecodeError&) {
    log_.warn("malformed %d message from %s", static_cast<int>(type),
              gm.sender.to_string().c_str());
  }
  // Protocol-message boundary: state was just mutated by a handler — the
  // cheapest possible moment to notice a stray write before it propagates
  // into the next outgoing message.
  run_audit(AuditPoint::kBoundary);
}

void Daemon::on_disconnect() {
  if (!running_) return;
  // Pre-wipe audit, same contract as on_membership: detect before the
  // release-everything below discards the evidence.
  run_audit(AuditPoint::kPreWipe);
  ++counters_.disconnects;
  emit(obs::EventType::kDisconnect);
  log_.warn("lost local GCS daemon: releasing all virtual interfaces");
  // Correctness cannot be ensured without the GCS (§4.2): drop everything
  // and retry the connection periodically.
  cancel_pending_acquires();
  release_everything("gcs_disconnect");
  enter_state(WamState::kIdle);
  view_.reset();
  table_.clear();
  received_.clear();
  info_.clear();
  balance_timer_.cancel();
  reconnect_timer_.cancel();
  reconnect_timer_ = sched_.schedule(config_.reconnect_interval,
                                     [this] { reconnect_tick(); });
}

void Daemon::reconnect_tick() {
  if (!running_ || client_.connected()) return;
  ++counters_.reconnect_attempts;
  if (gcs_.running() && client_.connect(gcs_)) {
    log_.info("reconnected to GCS daemon");
    client_.join(config_.group);
    return;
  }
  reconnect_timer_ = sched_.schedule(config_.reconnect_interval,
                                     [this] { reconnect_tick(); });
}

// --------------------------------------------------------- STATE_MSG ----

void Daemon::send_state_msg() {
  StateMsgV2 m;
  m.view = view_tag_;
  m.mature = mature_;
  m.weight = static_cast<std::uint32_t>(config_.weight);
  // Positions are name-sorted, so the owned list goes out in the same
  // sorted order the string path produced.
  for (std::uint32_t p = 0; p < groups_.size(); ++p) {
    if (ip_manager_.holds(groups_.ids[p])) m.owned.push_back(groups_.ids[p]);
  }
  m.preferred = preferred_ids_;
  m.quarantined.reserve(quarantined_.size());
  for (auto pos : quarantined_) m.quarantined.push_back(groups_.ids[pos]);
  client_.multicast(config_.group, encode_state_v2(m));
  ++counters_.state_msgs_sent;
}

void Daemon::handle_state_msg(const gcs::MemberId& sender,
                              const StateMsgV2& m) {
  if (state_ == WamState::kIdle) return;
  if (m.view != view_tag_) {
    // Algorithm 2 line 1: only STATE_MSGs generated in the current view
    // count; stale ones are discarded.
    ++counters_.stale_msgs_ignored;
    return;
  }
  ++counters_.state_msgs_received;

  auto& peer = info_[sender];
  peer.mature = m.mature;
  // Clamp to [1, INT_MAX]: a zero weight would starve the sender of every
  // target share, and a u32 past INT_MAX would turn negative in the cast
  // and poison the largest-remainder arithmetic for the whole fleet.
  peer.weight = m.weight == 0 || m.weight > 0x7fffffffu
                    ? 1
                    : static_cast<int>(m.weight);
  peer.preferred = std::set<GroupId>(m.preferred.begin(), m.preferred.end());
  peer.quarantined =
      std::set<GroupId>(m.quarantined.begin(), m.quarantined.end());
  if (m.mature && !mature_) become_mature("mature peer announced itself");

  // ResolveConflicts(): fold the sender's coverage into current_table,
  // dropping overlaps immediately (the earlier member in the membership
  // list releases — restoring network-level consistency ASAP).
  for (auto id : m.owned) {
    auto pos = groups_.position_of(id);
    if (!pos) {
      log_.warn("peer %s claims unknown VIP group '%s'",
                sender.to_string().c_str(), group_name(id).c_str());
      continue;
    }
    auto result = table_.claim(id, sender, *view_);
    if (result.dropped && client_.connected() &&
        *result.dropped == client_.self()) {
      if (log_.would_log(sim::LogLevel::kInfo)) {
        log_.info("conflict on %s: releasing (we precede %s in the view)",
                  groups_.names[*pos].c_str(), sender.to_string().c_str());
      }
      release_group(*pos);
      ++counters_.conflicts_dropped;
    }
  }

  if (state_ == WamState::kGather) {
    received_.insert(sender);
    bool complete = true;
    for (const auto& member : view_->members) {
      if (received_.count(member) == 0) {
        complete = false;
        break;
      }
    }
    if (complete) finish_gather();
  }
}

std::size_t Daemon::multicast_allocation(const VipTable& table, bool alloc) {
  BalanceMsgV2 m;
  m.view = view_tag_;
  // The wire order must be group-NAME order on every member (ids are
  // process-local): ascending position is that order, and the table only
  // ever holds configured groups.
  m.allocation.reserve(table.size());
  for (std::uint32_t p = 0; p < groups_.size(); ++p) {
    if (auto owner = table.owner(groups_.ids[p])) {
      m.allocation.emplace_back(
          groups_.ids[p], std::make_pair(owner->daemon.value(), owner->client));
    }
  }
  client_.multicast(config_.group,
                    alloc ? encode_alloc_v2(m) : encode_balance_v2(m));
  return m.allocation.size();
}

void Daemon::finish_gather() {
  if (config_.representative_driven) {
    // §4.2 variant: only the representative decides; its ALLOC_MSG imposes
    // the assignment on everyone (including itself, via self-delivery).
    enter_state(WamState::kRun);
    arm_balance_timer();
    if (is_representative()) {
      auto states = member_states();
      auto assignments = reallocate_ips_fast(groups_, table_, states);
      VipTable proposed = table_;
      for (const auto& [pos, mi] : assignments) {
        proposed.set_owner(groups_.ids[pos], states[mi].id);
      }
      auto sent = multicast_allocation(proposed, /*alloc=*/true);
      ++counters_.reallocations;
      emit(obs::EventType::kReallocation,
           {{"groups", std::to_string(sent)}, {"mode", "representative"}});
      log_.info("GATHER complete (representative): imposing allocation of "
                "%zu groups",
                sent);
    } else {
      log_.info("GATHER complete: awaiting the representative's allocation");
    }
    return;
  }
  // Reallocate_IPs(): every member computes the same assignment from the
  // same table and the same uniquely ordered member list.
  auto states = member_states();
  auto assignments = reallocate_ips_fast(groups_, table_, states);
  for (const auto& [pos, mi] : assignments) {
    table_.set_owner(groups_.ids[pos], states[mi].id);
    if (client_.connected() && states[mi].id == client_.self()) {
      acquire_group(pos);
    }
  }
  ++counters_.reallocations;
  emit(obs::EventType::kReallocation,
       {{"holes", std::to_string(assignments.size())},
        {"mode", "deterministic"}});
  enter_state(WamState::kRun);
  log_.info("GATHER complete: reallocated %zu holes, table holds %zu groups",
            assignments.size(), table_.size());
  arm_balance_timer();
}

// --------------------------------------------------------- BALANCE ----

void Daemon::handle_balance_msg(const BalanceMsgV2& m) {
  if (state_ != WamState::kRun || m.view != view_tag_) {
    // Algorithm 2 lines 10-11: BALANCE_MSGs are ignored during GATHER;
    // stale ones (older views) are ignored everywhere.
    ++counters_.stale_msgs_ignored;
    return;
  }
  ++counters_.balance_applied;
  // Change_IPs(): apply the representative's allocation atomically. The
  // message carries bare (ip, client) owner pairs; MemberId equality
  // deliberately ignores the informational name, so the reconstructed
  // owners still compare equal to client_.self().
  //
  // Start from the current table rather than from scratch: a BALANCE/ALLOC
  // whose allocation omits a configured group (version-skewed or buggy
  // peer) must not silently drop that group's coverage — omitted groups
  // keep their present owner.
  if (!mature_) become_mature("balance implies a bootstrapped cluster");
  VipTable next = table_;
  std::vector<bool> listed(groups_.size(), false);
  for (const auto& [id, owner] : m.allocation) {
    auto pos = groups_.position_of(id);
    if (!pos) {
      // Same rule as STATE_MSG claims: the table holds configured groups
      // only.
      log_.warn("balance allocation names unknown VIP group '%s': dropped",
                group_name(id).c_str());
      continue;
    }
    next.set_owner(id, gcs::MemberId{net::Ipv4Address(owner.first),
                                     owner.second, ""});
    listed[*pos] = true;
  }
  for (auto pos : config_pos_) {
    if (!listed[pos]) {
      log_.warn("balance allocation omits group %s: keeping current owner",
                groups_.names[pos].c_str());
    }
  }
  if (client_.connected()) {
    auto me = client_.self();
    for (auto pos : config_pos_) {
      auto owner = next.owner(groups_.ids[pos]);
      bool should_hold = owner && *owner == me;
      bool holds = ip_manager_.holds(groups_.ids[pos]);
      if (should_hold && !holds) acquire_group(pos);
      if (!should_hold && holds) release_group(pos);
    }
  }
  table_ = std::move(next);
}

void Daemon::arm_balance_timer() {
  if (config_.balance_timeout == sim::kZero) return;
  balance_timer_.cancel();
  balance_timer_ =
      sched_.schedule(config_.balance_timeout, [this] { balance_tick(); });
}

void Daemon::balance_tick() {
  if (!running_ || state_ != WamState::kRun) return;
  if (is_representative()) run_balance();
  arm_balance_timer();
}

bool Daemon::run_balance() {
  if (state_ != WamState::kRun || !is_representative()) return false;
  auto states = member_states();
  auto allocation = balance_ips_fast(groups_, table_, states);
  if (allocation.empty()) return false;
  bool changed = false;
  for (const auto& [pos, mi] : allocation) {
    auto current = table_.owner(groups_.ids[pos]);
    if (!current || !(*current == states[mi].id)) {
      changed = true;
      break;
    }
  }
  if (!changed) return false;
  BalanceMsgV2 m;
  m.view = view_tag_;
  m.allocation.reserve(allocation.size());
  for (const auto& [pos, mi] : allocation) {
    m.allocation.emplace_back(groups_.ids[pos],
                              std::make_pair(states[mi].id.daemon.value(),
                                             states[mi].id.client));
  }
  client_.multicast(config_.group, encode_balance_v2(m));
  ++counters_.balance_rounds;
  emit(obs::EventType::kBalanceRound,
       {{"groups", std::to_string(m.allocation.size())}});
  log_.info("representative: broadcasting balance (%zu groups)",
            m.allocation.size());
  return true;
}

bool Daemon::trigger_balance() { return run_balance(); }

// --------------------------------------------------------- maturity ----

void Daemon::arm_maturity_timer() {
  if (config_.maturity_timeout == sim::kZero) {
    mature_ = true;
    return;
  }
  maturity_timer_.cancel();
  maturity_timer_ =
      sched_.schedule(config_.maturity_timeout, [this] { maturity_tick(); });
}

void Daemon::become_mature(const char* how) {
  if (mature_) return;
  mature_ = true;
  maturity_timer_.cancel();
  log_.info("now mature: %s", how);
}

void Daemon::maturity_tick() {
  if (!running_ || mature_) return;
  // Anyone mature out there after all? (their STATE_MSG may have raced us)
  for (const auto& [member, peer] : info_) {
    if (peer.mature) {
      become_mature("mature peer known");
      return;
    }
  }
  ++counters_.maturity_timeouts;
  become_mature("maturity timeout expired");
  if (state_ == WamState::kRun && client_.connected()) {
    // Nobody manages the addresses: start managing them (§3.4) and tell
    // the others. Ascending position = sorted name order, as before.
    for (std::uint32_t p = 0; p < groups_.size(); ++p) {
      if (table_.owner(groups_.ids[p])) continue;
      table_.set_owner(groups_.ids[p], client_.self());
      acquire_group(p);
    }
    send_state_msg();
  } else if (state_ == WamState::kGather) {
    // Re-announce with the mature flag; the gather in flight will fold the
    // update in (received_ dedups the sender).
    send_state_msg();
  }
}

// --------------------------------------------------------- ARP share ----

void Daemon::set_arp_share_source(
    std::function<std::vector<std::uint32_t>()> src) {
  arp_share_source_ = std::move(src);
}

void Daemon::arm_arp_share_timer() {
  if (config_.arp_share_interval == sim::kZero) return;
  arp_share_timer_ = sched_.schedule(config_.arp_share_interval,
                                     [this] { arp_share_tick(); });
}

void Daemon::arm_announce_timer() {
  if (config_.announce_interval == sim::kZero) return;
  announce_timer_ = sched_.schedule(config_.announce_interval,
                                    [this] { announce_tick(); });
}

void Daemon::announce_tick() {
  if (!running_) return;
  // Anti-entropy: gratuitous-ARP refresh for everything we hold, so caches
  // that missed the takeover spoof (lossy LAN) eventually converge.
  for (auto pos : config_pos_) {
    if (ip_manager_.holds(groups_.ids[pos])) {
      ip_manager_.announce(*group_of_[pos]);
    }
  }
  arm_announce_timer();
}

void Daemon::arp_share_tick() {
  if (!running_) return;
  if (arp_share_source_ && client_.connected() &&
      state_ != WamState::kIdle) {
    ArpShareMsg m;
    m.ips = arp_share_source_();
    if (!m.ips.empty()) {
      client_.multicast(config_.group, encode_arp_share(m));
    }
  }
  arm_arp_share_timer();
}

// ------------------------------------------------------------ helpers ----

std::vector<MemberState> Daemon::member_states() const {
  std::vector<MemberState> out;
  if (!view_) return out;
  // §3.4: an immature server that hears a mature server's STATE_MSG in
  // GATHER marks itself mature. Since every member of the view saw the
  // same message set, "anyone mature => everyone mature" is a fact all
  // members can apply deterministically when allocating.
  bool any_mature = false;
  for (const auto& [member, peer] : info_) {
    if (peer.mature) any_mature = true;
  }
  // Ids a peer quarantined may name groups outside our config (version
  // skew); they drop out of the positional sets but still count for the
  // member-is-suspect flag, exactly like the string path did.
  auto positions_of = [&](const std::set<GroupId>& ids) {
    std::vector<std::uint32_t> positions;
    positions.reserve(ids.size());
    for (auto id : ids) {
      if (auto pos = groups_.position_of(id)) positions.push_back(*pos);
    }
    std::sort(positions.begin(), positions.end());
    return positions;
  };
  for (const auto& member : view_->members) {
    MemberState ms;
    ms.id = member;
    auto it = info_.find(member);
    if (it != info_.end()) {
      ms.mature = it->second.mature || any_mature;
      ms.weight = it->second.weight;
      ms.preferred = positions_of(it->second.preferred);
      ms.quarantined = positions_of(it->second.quarantined);
      ms.quarantined_any = !it->second.quarantined.empty();
    }
    out.push_back(std::move(ms));
  }
  return out;
}

void Daemon::acquire_group(std::uint32_t pos) {
  if (ip_manager_.holds(groups_.ids[pos])) return;
  const auto& name = groups_.names[pos];
  auto result = ip_manager_.acquire(*group_of_[pos]);
  if (result.ok()) {
    pending_acquires_.erase(pos);
    ++counters_.acquires;
    emit(obs::EventType::kVipAcquired, {{"group", name}});
    log_.info("acquired VIP group %s", name.c_str());
    return;
  }
  if (result.status == OsOpStatus::kConflict) {
    // Duplicate-address detection fired: another live host still answers
    // for the address. Don't fight at the ARP layer — the holder's claim
    // surfaces through STATE_MSGs and ResolveConflicts() decides; retry in
    // case the holder is mid-release.
    ++counters_.arp_conflicts;
    emit(obs::EventType::kArpConflict,
         {{"group", name}, {"detail", result.detail}});
    log_.warn("acquire of %s hit a duplicate address (%s): deferring to "
              "conflict resolution",
              name.c_str(), result.detail.c_str());
    auto& p = pending_acquires_[pos];
    if (!p.handoff_rechecked) {
      // Likely a hand-off in flight: re-check soon, spending neither an
      // attempt nor a jitter draw. Later conflicts take the normal backoff.
      p.handoff_rechecked = true;
      p.timer.cancel();
      p.timer = sched_.schedule(kHandoffRecheck,
                                [this, pos] { acquire_retry_tick(pos); });
      return;
    }
  } else {
    ++counters_.acquire_failures;
    log_.warn("acquire of %s failed: %s", name.c_str(), result.detail.c_str());
  }
  schedule_acquire_retry(pos, result);
}

void Daemon::release_group(std::uint32_t pos) {
  if (!ip_manager_.holds(groups_.ids[pos])) {
    auto it = pending_releases_.find(pos);
    if (it != pending_releases_.end()) {
      it->second.timer.cancel();
      pending_releases_.erase(it);
    }
    return;
  }
  const auto& name = groups_.names[pos];
  auto result = ip_manager_.release(*group_of_[pos]);
  if (!result.ok()) {
    // A release that fails leaves us still answering for the address, so —
    // unlike acquire — we never give up: retry with the same capped backoff
    // until the unbind sticks.
    log_.warn("release of %s failed: %s", name.c_str(), result.detail.c_str());
    schedule_release_retry(pos);
    return;
  }
  auto it = pending_releases_.find(pos);
  if (it != pending_releases_.end()) {
    it->second.timer.cancel();
    pending_releases_.erase(it);
  }
  ++counters_.releases;
  emit(obs::EventType::kVipReleased, {{"group", name}});
  log_.info("released VIP group %s", name.c_str());
}

void Daemon::release_everything(const char* cause) {
  std::size_t held = 0;
  for (auto id : groups_.ids) held += ip_manager_.holds(id) ? 1 : 0;
  emit(obs::EventType::kPanicRelease,
       {{"cause", cause}, {"held", std::to_string(held)}});
  for (auto pos : config_pos_) release_group(pos);
}

// -------------------------- fallible enforcement: retry / fence / NOTIFY ----

sim::Duration Daemon::backoff_delay(int failed_attempts) {
  auto delay = config_.acquire_backoff;
  for (int i = 1; i < failed_attempts && delay < config_.acquire_backoff_max;
       ++i) {
    delay += delay;
  }
  delay = std::min(delay, config_.acquire_backoff_max);
  if (config_.backoff_jitter > 0.0) {
    double factor = 1.0 - config_.backoff_jitter +
                    2.0 * config_.backoff_jitter * rng_.uniform();
    delay = sim::Duration(static_cast<sim::Duration::rep>(
        static_cast<double>(delay.count()) * factor));
  }
  return delay;
}

void Daemon::cancel_pending_acquires() {
  for (auto& [pos, p] : pending_acquires_) p.timer.cancel();
  pending_acquires_.clear();
}

void Daemon::schedule_acquire_retry(std::uint32_t pos,
                                    const OsOpResult& result) {
  auto& p = pending_acquires_[pos];
  ++p.attempts;
  if (p.attempts >= config_.acquire_retry_limit) {
    fence_group(pos, result.detail);
    return;
  }
  auto delay = backoff_delay(p.attempts);
  ++counters_.acquire_retries;
  p.timer.cancel();
  p.timer = sched_.schedule(delay, [this, pos] { acquire_retry_tick(pos); });
  log_.info("retrying acquire of %s in %.1fms (attempt %d/%d)",
            groups_.names[pos].c_str(), sim::to_millis(delay), p.attempts,
            config_.acquire_retry_limit);
}

void Daemon::acquire_retry_tick(std::uint32_t pos) {
  if (!running_) return;
  if (ip_manager_.holds(groups_.ids[pos])) {
    pending_acquires_.erase(pos);
    return;
  }
  if (!client_.connected() || state_ == WamState::kIdle) {
    pending_acquires_.erase(pos);
    return;
  }
  auto owner = table_.owner(groups_.ids[pos]);
  if (!owner || !(*owner == client_.self())) {
    // Reassigned (or the view changed) while we were backing off.
    pending_acquires_.erase(pos);
    return;
  }
  acquire_group(pos);
}

void Daemon::schedule_release_retry(std::uint32_t pos) {
  if (!running_) return;
  auto& p = pending_releases_[pos];
  ++p.attempts;
  ++counters_.release_retries;
  auto delay = backoff_delay(p.attempts);
  p.timer.cancel();
  p.timer = sched_.schedule(delay, [this, pos] { release_retry_tick(pos); });
}

void Daemon::release_retry_tick(std::uint32_t pos) {
  if (!running_) return;
  if (!ip_manager_.holds(groups_.ids[pos])) {
    pending_releases_.erase(pos);
    return;
  }
  if (client_.connected() && state_ != WamState::kIdle) {
    auto owner = table_.owner(groups_.ids[pos]);
    if (owner && *owner == client_.self()) {
      // The cluster re-assigned the group back to us mid-retry: the failed
      // release is moot, we are supposed to hold it after all.
      pending_releases_.erase(pos);
      return;
    }
  }
  release_group(pos);
}

void Daemon::fence_group(std::uint32_t pos, const std::string& reason) {
  pending_acquires_.erase(pos);
  const auto& name = groups_.names[pos];
  // Drop whatever partial state the failed acquires left behind. (Sim
  // acquisition is all-or-nothing; real platforms may partially bind.)
  if (ip_manager_.holds(groups_.ids[pos])) {
    release_group(pos);
  } else {
    ip_manager_.release(*group_of_[pos]);
  }
  bool fresh = quarantined_.insert(pos).second;
  if (fresh) {
    ++counters_.groups_fenced;
    emit(obs::EventType::kGroupFenced,
         {{"group", name},
          {"reason", reason},
          {"cooldown_ms",
           std::to_string(sim::to_millis(config_.quarantine_cooldown))}});
    log_.warn("self-fencing %s: retry budget exhausted (%s); broadcasting "
              "NOTIFY",
              name.c_str(), reason.c_str());
    // Tell the peers on the agreed stream: they drop our claim and re-run a
    // targeted Reallocate_IPs() excluding us, so coverage migrates now
    // instead of waiting for client-visible death (§4.2 fast path). Our own
    // copy self-delivers, which clears the table entry and folds the
    // quarantine into info_ exactly like at every peer.
    if (client_.connected() && state_ != WamState::kIdle) {
      send_notify(pos, true, reason);
    }
  }
  arm_cooldown(pos);
}

void Daemon::send_notify(std::uint32_t pos, bool fenced,
                         const std::string& reason) {
  NotifyMsg m;
  m.view = view_tag_;
  m.group = groups_.names[pos];
  m.fenced = fenced;
  m.cooldown_ms =
      static_cast<std::uint32_t>(sim::to_millis(config_.quarantine_cooldown));
  m.reason = reason;
  client_.multicast(config_.group, encode_notify(m));
  ++counters_.notifies_sent;
}

void Daemon::handle_notify(const gcs::MemberId& sender, const NotifyMsg& m) {
  if (state_ == WamState::kIdle) return;
  if (m.view != view_tag_) {
    ++counters_.stale_msgs_ignored;
    return;
  }
  ++counters_.notifies_received;
  auto pos = position_of(m.group);
  if (!pos) {
    log_.warn("NOTIFY for unknown VIP group '%s' from %s", m.group.c_str(),
              sender.to_string().c_str());
    return;
  }
  auto id = groups_.ids[*pos];
  auto& peer = info_[sender];
  if (m.fenced) {
    peer.quarantined.insert(id);
    log_.info("%s fenced %s (%s): reallocating around it",
              sender.to_string().c_str(), m.group.c_str(), m.reason.c_str());
    // The fenced member holds the allocation but cannot enforce it: drop
    // its claim and re-run the deterministic reallocation without it.
    auto owner = table_.owner(id);
    if (owner && *owner == sender) table_.clear_owner(id);
    if (state_ == WamState::kRun) reallocate_holes("notify");
  } else {
    peer.quarantined.erase(id);
    log_.info("%s cleared its quarantine of %s", sender.to_string().c_str(),
              m.group.c_str());
  }
}

void Daemon::reallocate_holes(const char* mode) {
  auto states = member_states();
  auto assignments = reallocate_ips_fast(groups_, table_, states);
  if (assignments.empty()) return;
  if (config_.representative_driven) {
    // §4.2 variant: only the representative decides; everyone else waits
    // for its ALLOC_MSG.
    if (!is_representative()) return;
    VipTable proposed = table_;
    for (const auto& [pos, mi] : assignments) {
      proposed.set_owner(groups_.ids[pos], states[mi].id);
    }
    auto sent = multicast_allocation(proposed, /*alloc=*/true);
    ++counters_.reallocations;
    emit(obs::EventType::kReallocation,
         {{"groups", std::to_string(sent)}, {"mode", mode}});
    return;
  }
  for (const auto& [pos, mi] : assignments) {
    table_.set_owner(groups_.ids[pos], states[mi].id);
    if (client_.connected() && states[mi].id == client_.self()) {
      acquire_group(pos);
    }
  }
  ++counters_.reallocations;
  emit(obs::EventType::kReallocation,
       {{"holes", std::to_string(assignments.size())}, {"mode", mode}});
}

void Daemon::arm_cooldown(std::uint32_t pos) {
  auto it = cooldown_timers_.find(pos);
  if (it != cooldown_timers_.end()) it->second.cancel();
  cooldown_timers_[pos] = sched_.schedule(
      config_.quarantine_cooldown, [this, pos] { cooldown_tick(pos); });
}

void Daemon::cooldown_tick(std::uint32_t pos) {
  cooldown_timers_.erase(pos);
  if (!running_ || quarantined_.count(pos) == 0) return;
  if (!client_.connected() || state_ != WamState::kRun) {
    arm_cooldown(pos);
    return;
  }
  const auto& name = groups_.names[pos];
  const auto& group = *group_of_[pos];
  auto owner = table_.owner(groups_.ids[pos]);
  bool ours_or_hole = !owner || *owner == client_.self();
  // Probe the enforcement layer: a real acquire when the group is ours to
  // take (hole, or still nominally ours), a side-effect-free announce when
  // a peer covers it — binding behind the peer's back would split traffic.
  auto result = ours_or_hole ? ip_manager_.acquire(group)
                             : ip_manager_.announce(group);
  if (result.status == OsOpStatus::kFailed) {
    // Fault persists: stay fenced, silently re-arm the cooldown.
    arm_cooldown(pos);
    return;
  }
  quarantined_.erase(pos);
  ++counters_.groups_unfenced;
  emit(obs::EventType::kGroupUnfenced, {{"group", name}});
  log_.info("quarantine of %s cleared: enforcement layer healthy again",
            name.c_str());
  bool claimed = false;
  if (ours_or_hole && result.ok() && ip_manager_.holds(groups_.ids[pos])) {
    table_.set_owner(groups_.ids[pos], client_.self());
    ++counters_.acquires;
    emit(obs::EventType::kVipAcquired, {{"group", name}});
    claimed = true;
  }
  send_notify(pos, false, "cooldown probe succeeded");
  // A claim must reach the peers' tables: STATE_MSGs fold via claim() in
  // any state, exactly like the maturity bootstrap's announcement.
  if (claimed) send_state_msg();
}

// --------------------------- self-stabilization: audit / heal / resync ----

namespace {
const char* audit_point_name(int p) {
  switch (p) {
    case 0: return "timer";
    case 1: return "boundary";
    case 2: return "pre-wipe";
    case 3: return "shutdown";
  }
  return "?";
}
}  // namespace

void Daemon::arm_audit_timer() {
  if (config_.audit_interval == sim::kZero) return;
  audit_timer_.cancel();
  audit_timer_ =
      sched_.schedule(config_.audit_interval, [this] { audit_tick(); });
}

void Daemon::audit_tick() {
  if (!running_) return;
  run_audit(AuditPoint::kTimer);
  arm_audit_timer();
}

void Daemon::run_audit(AuditPoint point) {
  // Zero interval disables auditing entirely (timer AND boundary checks),
  // keeping pre-existing pinned seeds byte-identical.
  if (config_.audit_interval == sim::kZero) return;
  if (!running_ || in_audit_) return;
  auto findings = StateAuditor::audit(*this);
  if (findings.empty()) {
    // A clean timer sweep a full cap-period after the last resync resets
    // the backoff: the next isolated corruption gets the fast base delay
    // again, while a storm keeps the damping.
    if (point == AuditPoint::kTimer && resync_attempts_ > 0 &&
        !resync_pending_ &&
        sched_.now() - last_resync_at_ >= config_.resync_backoff_max) {
      resync_attempts_ = 0;
    }
    return;
  }
  // Guard: heals below fence/multicast, and local delivery is synchronous —
  // the nested on_message boundary audit must not recurse into run_audit
  // while the state is mid-repair.
  in_audit_ = true;
  ++counters_.corruptions_detected;
  std::string checks;
  for (const auto& f : findings) {
    if (!checks.empty()) checks += ',';
    checks += audit_check_name(f.check);
    log_.warn("state audit [%s] %s%s%s: %s",
              audit_point_name(static_cast<int>(point)),
              audit_check_name(f.check), f.group.empty() ? "" : " ",
              f.group.c_str(), f.detail.c_str());
  }
  emit(obs::EventType::kCorruptionDetected,
       {{"checks", checks},
        {"count", std::to_string(findings.size())},
        {"at", audit_point_name(static_cast<int>(point))}});

  if (point == AuditPoint::kShutdown) {
    // Detect-only: the shutdown discards the state anyway.
    in_audit_ = false;
    return;
  }
  if (point == AuditPoint::kPreWipe) {
    // The caller is about to discard and rebuild this exact state (view
    // change wipe or disconnect release): the imminent rebuild IS the
    // heal, and any pending resync is superseded by it.
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal, {{"action", "view-rebuild"}});
    resync_timer_.cancel();
    resync_pending_ = false;
    in_audit_ = false;
    return;
  }

  bool checksum = false;
  bool index = false;
  bool view_tag = false;
  bool unknown_quarantine = false;
  std::vector<std::uint32_t> bogus;  // positions, in finding (name) order
  for (const auto& f : findings) {
    switch (f.check) {
      case AuditCheck::kTableChecksum: checksum = true; break;
      case AuditCheck::kTableIndex: index = true; break;
      case AuditCheck::kViewTag: view_tag = true; break;
      case AuditCheck::kOwnerNotInView:
        // The table holds configured groups only.
        bogus.push_back(*position_of(f.group));
        break;
      case AuditCheck::kQuarantineUnknown: unknown_quarantine = true; break;
    }
  }
  if (unknown_quarantine) {
    // Ordered by position: the unknown ones are exactly the tail.
    const auto configured = static_cast<std::uint32_t>(groups_.size());
    auto timers = cooldown_timers_.lower_bound(configured);
    for (auto it = timers; it != cooldown_timers_.end(); ++it) {
      it->second.cancel();
    }
    cooldown_timers_.erase(timers, cooldown_timers_.end());
    auto first = quarantined_.lower_bound(configured);
    auto dropped = std::distance(first, quarantined_.end());
    quarantined_.erase(first, quarantined_.end());
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal,
         {{"action", "drop-unknown-quarantine"},
          {"groups", std::to_string(dropped)}});
  }
  if (!bogus.empty()) {
    // Identified corrupt entries: drop them, rebuild the derived state
    // (index + checksum), then run the PR-3 fence machinery per group —
    // quarantine + NOTIFY makes the peers reallocate around us NOW, and
    // the cooldown probe clears the fence once the dust settles. The
    // table is consistent again BEFORE the first multicast below (local
    // delivery is synchronous).
    for (auto pos : bogus) table_.clear_owner(groups_.ids[pos]);
    table_.rebuild();
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal,
         {{"action", "fence"}, {"groups", std::to_string(bogus.size())}});
    for (auto pos : bogus) fence_group(pos, "state audit: owner not in view");
  }
  if (view_tag || (checksum && bogus.empty())) {
    // No identifiable entry to surgically repair (or the incarnation
    // itself is suspect): discard everything and rebuild from the peers.
    schedule_resync(view_tag ? "view-tag mismatch" : "table checksum");
  } else if (index && bogus.empty() && !checksum) {
    // Index-only drift: the owner map is intact, rebuild the index.
    table_.rebuild();
    ++counters_.self_heals;
    emit(obs::EventType::kSelfHeal, {{"action", "rebuild-index"}});
  }
  in_audit_ = false;
}

void Daemon::schedule_resync(const std::string& why) {
  if (resync_pending_) return;
  resync_pending_ = true;
  auto delay = config_.resync_delay;
  for (int i = 0; i < resync_attempts_ && delay < config_.resync_backoff_max;
       ++i) {
    delay += delay;
  }
  delay = std::min(delay, config_.resync_backoff_max);
  ++resync_attempts_;
  last_resync_at_ = sched_.now();
  log_.warn("scheduling resync in %.1fms (%s, attempt %d)",
            sim::to_millis(delay), why.c_str(), resync_attempts_);
  resync_timer_.cancel();
  resync_timer_ = sched_.schedule(delay, [this] { resync_tick(); });
}

void Daemon::resync_tick() {
  resync_pending_ = false;
  if (!running_ || !client_.connected() || state_ == WamState::kIdle) return;
  // Pre-wipe audit, same contract as on_membership and on_disconnect: a
  // corruption injected since the resync was scheduled is detected (and
  // counted) before the wipe below erases it.
  run_audit(AuditPoint::kPreWipe);
  ++counters_.resyncs;
  ++counters_.self_heals;
  emit(obs::EventType::kSelfHeal,
       {{"action", "resync"}, {"attempt", std::to_string(resync_attempts_)}});
  log_.warn("resync: rejoining %s to rebuild state from the peers",
            config_.group.c_str());
  last_resync_at_ = sched_.now();
  // Drop the whole client session and rejoin under a FRESH incarnation
  // (new client id), not leave+join under the same identity: the leave
  // and the re-join travel as separate unicasts to the sequencer, and
  // in-flight jitter can invert them — the join would no-op against our
  // still-present membership and the leave would then evict us for good.
  // A fresh identity's join commutes with the old identity's leave, so
  // arrival order cannot matter. The graceful disconnect still leaves the
  // group for the old id, so peers reallocate within milliseconds while
  // we discard every claim we can no longer vouch for; the rejoin
  // installs a fresh view and the normal GATHER rebuilds current_table
  // from the peers' STATE_MSGs. Quarantine deliberately survives — it
  // rides in STATE_MSGs, not in the wiped table.
  client_.disconnect();
  cancel_pending_acquires();
  release_everything("resync");
  balance_timer_.cancel();
  view_.reset();
  view_tag_ = ViewTag{};
  table_.clear();
  received_.clear();
  info_.clear();
  enter_state(WamState::kIdle);
  if (!client_.connect(gcs_)) {
    // The local GCS died between audit and resync: fall back to the
    // standard reconnect loop (on_disconnect-equivalent state).
    reconnect_timer_.cancel();
    reconnect_timer_ = sched_.schedule(config_.reconnect_interval,
                                       [this] { reconnect_tick(); });
    return;
  }
  client_.join(config_.group);
}

// ------------------------------- chaos backdoors (corruption injection) ----

bool Daemon::chaos_corrupt_vip_owner(int index) {
  if (!running_ || !client_.connected() || state_ == WamState::kIdle ||
      config_pos_.empty()) {
    return false;
  }
  auto id = groups_.ids[config_pos_[static_cast<std::size_t>(index) %
                                    config_pos_.size()]];
  // An identity no view ever contained: trips the checksum, the index
  // agreement AND the owner-not-in-view check.
  gcs::MemberId bogus{net::Ipv4Address(10, 0, 254, 254), 0xC0DE, "bogus"};
  table_.chaos_set_owner_unchecked(id, bogus);
  log_.warn("chaos: corrupted owner of %s", group_name(id).c_str());
  return true;
}

bool Daemon::chaos_corrupt_index(int index) {
  if (!running_ || !client_.connected() || state_ == WamState::kIdle ||
      config_pos_.empty()) {
    return false;
  }
  auto id = groups_.ids[config_pos_[static_cast<std::size_t>(index) %
                                    config_pos_.size()]];
  gcs::MemberId phantom{net::Ipv4Address(10, 0, 254, 253), 0xBEEF, "phantom"};
  table_.chaos_corrupt_index_entry(id, phantom);
  log_.warn("chaos: desynced member index for %s", group_name(id).c_str());
  return true;
}

bool Daemon::chaos_corrupt_view_tag() {
  if (!running_ || !client_.connected() || state_ == WamState::kIdle ||
      !view_) {
    return false;
  }
  view_tag_.group_seq ^= 0x40;  // single bit flip: the classic soft error
  log_.warn("chaos: flipped view tag to %s", view_tag_.to_string().c_str());
  // A flip landing on a still-unhealed earlier flip cancels it: the tag is
  // correct again and there is nothing any detector could ever find.
  // Report not-applied so the oracle records no detection obligation.
  if (view_tag_ == ViewTag::of(*view_)) {
    log_.warn("chaos: double flip restored the view tag — no corruption");
    return false;
  }
  return true;
}

void Daemon::set_preferences(std::vector<std::string> preferred) {
  config_.preferred = std::move(preferred);
  config_.validate();
  preferred_ids_.clear();
  preferred_ids_.reserve(config_.preferred.size());
  for (const auto& name : config_.preferred) {
    preferred_ids_.push_back(intern_group(name));
  }
}

}  // namespace wam::wackamole
