#include "net/fabric.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace wam::net {

namespace {

// Single source of truth for the fabric metric names: bind() and
// export_into() both enumerate through here, so the registry view can
// never drift from the struct.
template <typename Counters, typename Fn>
void for_each_fabric_metric(Counters& c, Fn&& fn) {
  fn("frames_sent", c.frames_sent);
  fn("frames_delivered", c.frames_delivered);
  fn("dropped_no_target", c.dropped_no_target);
  fn("dropped_partition", c.dropped_partition);
  fn("dropped_nic_down", c.dropped_nic_down);
  fn("dropped_random", c.dropped_random);
  fn("dropped_directional", c.dropped_directional);
}

}  // namespace

void FabricCounters::bind(obs::MetricRegistry& registry,
                          const std::string& scope) {
  for_each_fabric_metric(*this, [&](const char* name, obs::Counter& c) {
    registry.bind(c, scope + "/" + name);
  });
}

void FabricCounters::export_into(obs::MetricRegistry& registry,
                                 const std::string& scope) const {
  for_each_fabric_metric(*this,
                         [&](const char* name, const obs::Counter& c) {
                           registry.counter(scope + "/" + name) = c.value();
                         });
}

Fabric::Fabric(sim::Scheduler& sched, sim::Log* log, std::uint64_t seed)
    : sched_(sched), log_(log, "net/fabric"), rng_(seed) {}

void Fabric::bind_observability(obs::Observability& obs, std::string scope) {
  obs_ = &obs;
  obs_scope_ = std::move(scope);
  counters_.bind(obs.registry, obs_scope_);
}

SegmentId Fabric::add_segment(SegmentConfig config) {
  segments_.push_back(Segment{std::move(config), {}});
  return static_cast<SegmentId>(segments_.size() - 1);
}

SegmentId Fabric::add_segment() { return add_segment(SegmentConfig{}); }

Fabric::SegmentConfig& Fabric::segment_config(SegmentId seg) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  return segments_[static_cast<std::size_t>(seg)].config;
}

NicId Fabric::attach(SegmentId seg, MacAddress mac, DeliverFn deliver) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  WAM_EXPECTS(deliver != nullptr);
  WAM_EXPECTS(!mac.is_broadcast() && !mac.is_null());
  for (const auto& existing : nics_) {
    WAM_EXPECTS(!(existing.segment == seg && existing.mac == mac));
  }
  auto id = static_cast<NicId>(nics_.size());
  nics_.push_back(Nic{seg, mac, true, 0, std::move(deliver)});
  segments_[static_cast<std::size_t>(seg)].nics.push_back(id);
  return id;
}

void Fabric::set_address_probe(NicId id, AddressProbeFn probe) {
  nic(id).probe = std::move(probe);
}

bool Fabric::address_in_use(NicId asking, Ipv4Address ip) const {
  const auto& asker = nic(asking);
  if (!asker.up) return false;
  for (const auto& other_id :
       segments_[static_cast<std::size_t>(asker.segment)].nics) {
    if (other_id == asking) continue;
    const auto& other = nic(other_id);
    if (!other.up || other.component != asker.component) continue;
    // A probe is a round trip: the who-has must reach the holder and the
    // is-at must make it back. (Empty-set guard: asymmetric links are a
    // chaos-only feature, so the common case skips both tree lookups.)
    if (!blocked_.empty() && (blocked_.count({asking, other_id}) > 0 ||
                              blocked_.count({other_id, asking}) > 0)) {
      continue;
    }
    if (other.probe && other.probe(ip)) return true;
  }
  return false;
}

const Fabric::Nic& Fabric::nic(NicId id) const {
  WAM_EXPECTS(id >= 0 && id < static_cast<NicId>(nics_.size()));
  return nics_[static_cast<std::size_t>(id)];
}

Fabric::Nic& Fabric::nic(NicId id) {
  WAM_EXPECTS(id >= 0 && id < static_cast<NicId>(nics_.size()));
  return nics_[static_cast<std::size_t>(id)];
}

void Fabric::set_nic_up(NicId id, bool up) {
  auto& n = nic(id);
  if (n.up != up) {
    log_.debug("nic %d (%s) %s", id, n.mac.to_string().c_str(),
               up ? "up" : "down");
  }
  n.up = up;
}

void Fabric::add_mac_filter(NicId id, MacAddress mac) {
  WAM_EXPECTS(mac.is_group());
  nic(id).filters.insert(mac);
}

void Fabric::remove_mac_filter(NicId id, MacAddress mac) {
  nic(id).filters.erase(mac);
}

bool Fabric::nic_up(NicId id) const { return nic(id).up; }
SegmentId Fabric::segment_of(NicId id) const { return nic(id).segment; }
MacAddress Fabric::mac_of(NicId id) const { return nic(id).mac; }
int Fabric::component_of(NicId id) const { return nic(id).component; }

void Fabric::set_partition(SegmentId seg,
                           const std::vector<std::vector<NicId>>& groups) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  const auto& members = segments_[static_cast<std::size_t>(seg)].nics;
  std::set<NicId> seen;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NicId id : groups[g]) {
      WAM_EXPECTS(nic(id).segment == seg);
      WAM_EXPECTS(seen.insert(id).second);
      nic(id).component = static_cast<int>(g);
    }
  }
  WAM_EXPECTS(seen.size() == members.size());
  log_.info("segment %d partitioned into %zu components", seg, groups.size());
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultInjected, obs_scope_,
               {{"kind", "partition"},
                {"segment", std::to_string(seg)},
                {"components", std::to_string(groups.size())}});
  }
}

void Fabric::block_direction(NicId from, NicId to) {
  if (!blocked_.emplace(from, to).second) return;
  log_.info("directional block: nic %d -> nic %d", from, to);
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultInjected, obs_scope_,
               {{"kind", "directional_block"},
                {"from", std::to_string(from)},
                {"to", std::to_string(to)}});
  }
}

void Fabric::unblock_direction(NicId from, NicId to) {
  if (blocked_.erase({from, to}) == 0) return;
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultHealed, obs_scope_,
               {{"kind", "directional_unblock"},
                {"from", std::to_string(from)},
                {"to", std::to_string(to)}});
  }
}

void Fabric::clear_directional_blocks() {
  if (blocked_.empty()) return;
  blocked_.clear();
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultHealed, obs_scope_,
               {{"kind", "directional_clear"}});
  }
}

void Fabric::set_drop_probability(SegmentId seg, double p) {
  WAM_EXPECTS(p >= 0.0 && p < 1.0);
  auto& config = segment_config(seg);
  if (config.drop_probability == p) return;
  config.drop_probability = p;
  log_.info("segment %d loss probability now %g", seg, p);
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(),
               p > 0.0 ? obs::EventType::kFaultInjected
                       : obs::EventType::kFaultHealed,
               obs_scope_,
               {{"kind", p > 0.0 ? "loss_burst" : "loss_end"},
                {"segment", std::to_string(seg)},
                {"p", std::to_string(p)}});
  }
}

void Fabric::merge_segment(SegmentId seg) {
  WAM_EXPECTS(seg >= 0 && seg < segment_count());
  for (NicId id : segments_[static_cast<std::size_t>(seg)].nics) {
    nic(id).component = 0;
  }
  log_.info("segment %d merged", seg);
  if (obs_ != nullptr) {
    obs_->emit(sched_.now(), obs::EventType::kFaultHealed, obs_scope_,
               {{"kind", "merge"}, {"segment", std::to_string(seg)}});
  }
}

void Fabric::deliver_now(NicId to, Frame frame) {
  const auto& n = nic(to);
  if (!n.up) {
    ++counters_.dropped_nic_down;
    return;
  }
  ++counters_.frames_delivered;
  n.deliver(frame, to);
}

void Fabric::deliver_later(const Segment& seg, NicId to, Frame frame) {
  sim::Duration latency = seg.config.latency;
  if (seg.config.jitter > sim::kZero) {
    latency += rng_.duration_range(sim::kZero, seg.config.jitter);
  }
  sched_.schedule_at(sched_.now() + latency,
                     [this, to, frame = std::move(frame)]() mutable {
                       deliver_now(to, std::move(frame));
                     });
}

void Fabric::send(NicId from, Frame frame) {
  const auto& sender = nic(from);
  if (!sender.up) {
    ++counters_.dropped_nic_down;
    return;
  }
  const auto& seg = segments_[static_cast<std::size_t>(sender.segment)];
  ++counters_.frames_sent;
  if (tap_) tap_(sender.segment, frame);
  if (seg.config.drop_probability > 0 &&
      rng_.chance(seg.config.drop_probability)) {
    ++counters_.dropped_random;
    return;
  }

  if (frame.dst.is_group()) {
    // Broadcast goes to everyone; multicast only to NICs with the filter.
    for (NicId id : seg.nics) {
      if (id == from) continue;
      const auto& target = nic(id);
      if (!frame.dst.is_broadcast() && target.filters.count(frame.dst) == 0) {
        continue;
      }
      if (!target.up) {
        ++counters_.dropped_nic_down;
        continue;
      }
      if (target.component != sender.component) {
        ++counters_.dropped_partition;
        continue;
      }
      if (!blocked_.empty() && blocked_.count({from, id}) > 0) {
        ++counters_.dropped_directional;
        continue;
      }
      deliver_later(seg, id, frame);
    }
    return;
  }

  for (NicId id : seg.nics) {
    const auto& target = nic(id);
    if (target.mac != frame.dst) continue;
    if (!target.up) {
      ++counters_.dropped_nic_down;
      return;
    }
    if (target.component != sender.component) {
      ++counters_.dropped_partition;
      return;
    }
    if (!blocked_.empty() && blocked_.count({from, id}) > 0) {
      ++counters_.dropped_directional;
      return;
    }
    deliver_later(seg, id, frame);
    return;
  }
  ++counters_.dropped_no_target;
}

void Fabric::send_batch(NicId from, std::vector<Frame> frames) {
  if (frames.empty()) return;
  const auto& sender = nic(from);
  if (!sender.up) {
    counters_.dropped_nic_down += frames.size();
    return;
  }
  const auto& seg = segments_[static_cast<std::size_t>(sender.segment)];
  const sim::TimePoint tnow = sched_.now();

  // Phase 1 mirrors send() once per frame — same counter bumps, same
  // eligibility checks, and crucially the same RNG draw order (one drop
  // draw per frame on lossy segments, one jitter draw per accepted
  // (frame, receiver) pair) — but records the computed arrival instead of
  // scheduling an event.
  struct Pending {
    sim::TimePoint when;
    std::uint32_t order;  // draw order; stands in for the scheduler seq
    std::uint32_t frame;
  };
  std::map<NicId, std::vector<Pending>> deliveries;
  std::uint32_t order = 0;
  auto arrival = [&] {
    sim::Duration latency = seg.config.latency;
    if (seg.config.jitter > sim::kZero) {
      latency += rng_.duration_range(sim::kZero, seg.config.jitter);
    }
    return tnow + latency;
  };

  for (std::uint32_t fi = 0; fi < frames.size(); ++fi) {
    const Frame& frame = frames[fi];
    ++counters_.frames_sent;
    if (tap_) tap_(sender.segment, frame);
    if (seg.config.drop_probability > 0 &&
        rng_.chance(seg.config.drop_probability)) {
      ++counters_.dropped_random;
      continue;
    }

    if (frame.dst.is_group()) {
      for (NicId id : seg.nics) {
        if (id == from) continue;
        const auto& target = nic(id);
        if (!frame.dst.is_broadcast() &&
            target.filters.count(frame.dst) == 0) {
          continue;
        }
        if (!target.up) {
          ++counters_.dropped_nic_down;
          continue;
        }
        if (target.component != sender.component) {
          ++counters_.dropped_partition;
          continue;
        }
        if (!blocked_.empty() && blocked_.count({from, id}) > 0) {
          ++counters_.dropped_directional;
          continue;
        }
        deliveries[id].push_back(Pending{arrival(), order++, fi});
      }
      continue;
    }

    bool matched = false;
    for (NicId id : seg.nics) {
      const auto& target = nic(id);
      if (target.mac != frame.dst) continue;
      matched = true;
      if (!target.up) {
        ++counters_.dropped_nic_down;
      } else if (target.component != sender.component) {
        ++counters_.dropped_partition;
      } else if (!blocked_.empty() && blocked_.count({from, id}) > 0) {
        ++counters_.dropped_directional;
      } else {
        deliveries[id].push_back(Pending{arrival(), order++, fi});
      }
      break;
    }
    if (!matched) ++counters_.dropped_no_target;
  }

  // Phase 2: one event per receiver at its batch's LAST arrival, handing
  // frames over in (arrival, draw order) — the (time, seq) order the
  // scheduler would have delivered the per-frame events in. deliver_now
  // re-checks liveness per frame, since the receiver may go down from
  // within an earlier frame's handler, exactly as it could between two
  // unbatched delivery events.
  for (auto& [to, list] : deliveries) {
    std::sort(list.begin(), list.end(),
              [](const Pending& a, const Pending& b) {
                if (a.when != b.when) return a.when < b.when;
                return a.order < b.order;
              });
    std::vector<Frame> batch;
    batch.reserve(list.size());
    for (const Pending& p : list) batch.push_back(frames[p.frame]);
    sched_.schedule_at(list.back().when,
                       [this, to, batch = std::move(batch)]() mutable {
                         for (Frame& f : batch) deliver_now(to, std::move(f));
                       });
  }
}

}  // namespace wam::net
