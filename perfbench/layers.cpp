#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <queue>
#include <unordered_map>
#include <variant>

#include "gcs/message.hpp"
#include "net/frame.hpp"
#include "wackamole/balance.hpp"
#include "wackamole/wire.hpp"

namespace perfbench {

using namespace wam;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double calibration_ms() {
  constexpr int kSteps = 60000;
  constexpr std::size_t kHeapCap = 4096;
  static volatile std::uint64_t sink = 0;
  const double t0 = now_ms();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  std::uint64_t x = 7;
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    heap.push(x >> 20);
    map[static_cast<std::uint32_t>((x >> 40) & 0xffff)] += 1;
    if (heap.size() > kHeapCap) heap.pop();
  }
  sink = sink + heap.top() + map.size();
  return now_ms() - t0;
}

// ---- spans ----

Spans::Scope::Scope(Spans& spans, const char* name, int op) : spans_(spans) {
  if (!spans_.enabled) return;
  index_ = static_cast<int>(spans_.spans_.size());
  Span s;
  s.name = name;
  s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  s.op = op >= 0 || s.parent < 0 ? op : spans_.spans_[s.parent].op;
  s.start_ms = now_ms();
  spans_.spans_.push_back(std::move(s));
  spans_.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(index_)].end_ms = now_ms();
  spans_.open_.pop_back();
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

bool Spans::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %d, \"op\": %d}%s\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms, s.parent, s.op,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

// ---- fabric tap ----

namespace {

const char* gcs_type_name(std::size_t variant_index) {
  // Order of gcs::Message's alternatives.
  static const char* const kNames[] = {
      "gcs.frames.heartbeat", "gcs.frames.discovery", "gcs.frames.propose",
      "gcs.frames.accept",    "gcs.frames.install",   "gcs.frames.forward",
      "gcs.frames.data",      "gcs.frames.nack",      "gcs.frames.token"};
  static_assert(std::variant_size_v<gcs::Message> == std::size(kNames));
  return kNames[variant_index];
}

constexpr std::size_t kMaxStateSamples = 64;

}  // namespace

void FrameTap::install(net::Fabric& fabric) {
  fabric.set_tap([this](net::SegmentId, const net::Frame& f) { observe(f); });
}

void FrameTap::drain_into(Counts& out) {
  for (const auto& [name, v] : counts_) out[name] += v;
  counts_.clear();
}

void FrameTap::observe(const net::Frame& frame) {
  counts_["net.bytes"] += static_cast<double>(frame.payload.size());
  if (frame.type == net::EtherType::kArp) {
    counts_["net.frames.arp"] += 1;
    return;
  }
  try {
    const auto ip = net::Ipv4Packet::decode(frame.payload);
    if (ip.protocol != net::kProtoUdp) return;
    const auto udp = net::UdpDatagram::decode(ip.payload);
    if (udp.dst_port == gcs_port_) observe_gcs(udp.payload);
  } catch (const std::exception&) {
    counts_["net.frames.undecodable"] += 1;
  }
}

void FrameTap::observe_gcs(const util::SharedBytes& payload) {
  const gcs::Message msg = gcs::decode(payload);
  counts_[gcs_type_name(msg.index())] += 1;
  if (std::holds_alternative<gcs::Discovery>(msg)) {
    counts_["gcs.bytes.discovery"] += static_cast<double>(payload.size());
    return;
  }
  const gcs::DataMessage* data = nullptr;
  if (const auto* fwd = std::get_if<gcs::Forward>(&msg)) data = &fwd->data;
  if (const auto* d = std::get_if<gcs::DataMessage>(&msg)) data = d;
  if (data == nullptr || data->kind != gcs::DataKind::kClientPayload ||
      data->payload.empty()) {
    return;
  }
  const auto bytes = static_cast<double>(data->payload.size());
  switch (const auto type = wackamole::peek_type(data->payload)) {
    case wackamole::WamMsgType::kState:
    case wackamole::WamMsgType::kStateV2:
      counts_["wam.bytes.state"] += bytes;
      if (type == wackamole::WamMsgType::kStateV2 &&
          state_samples_.size() < kMaxStateSamples) {
        state_samples_.push_back(data->payload.to_bytes());
      }
      break;
    case wackamole::WamMsgType::kBalance:
    case wackamole::WamMsgType::kBalanceV2:
    case wackamole::WamMsgType::kAlloc:
    case wackamole::WamMsgType::kAllocV2:
      counts_["wam.bytes.balance"] += bytes;
      break;
    default:
      break;
  }
}

// ---- program counters ----

Counts program_counts(apps::ClusterScenario& s) {
  const auto& r = s.obs.registry;
  Counts c;
  c["sim.events"] = static_cast<double>(s.sched.executed_events());
  c["net.frames"] = static_cast<double>(r.sum("net/frames_sent"));
  c["net.deliveries"] = static_cast<double>(r.sum("net/frames_delivered"));
  double drops = 0;
  for (const char* d : {"net/dropped_no_target", "net/dropped_partition",
                        "net/dropped_nic_down", "net/dropped_random",
                        "net/dropped_directional"}) {
    drops += static_cast<double>(r.sum(d));
  }
  c["net.drops"] = drops;
  c["gcs.views"] = static_cast<double>(r.sum("gcs/*/views_installed"));
  c["gcs.discoveries_started"] =
      static_cast<double>(r.sum("gcs/*/discoveries_started"));
  c["gcs.data_sequenced"] = static_cast<double>(r.sum("gcs/*/data_sequenced"));
  c["gcs.retransmissions"] =
      static_cast<double>(r.sum("gcs/*/retransmissions"));
  c["wam.state_msgs"] = static_cast<double>(r.sum("wam/*/state_msgs_sent"));
  c["wam.reallocations"] = static_cast<double>(r.sum("wam/*/reallocations"));
  c["wam.balance_rounds"] = static_cast<double>(r.sum("wam/*/balance_rounds"));
  c["wam.acquires"] = static_cast<double>(r.sum("wam/*/acquires"));
  c["wam.releases"] = static_cast<double>(r.sum("wam/*/releases"));
  c["obs.events"] = static_cast<double>(s.obs.bus.published());
  return c;
}

// ---- replayed Wackamole call costs ----

namespace {

template <class Fn>
double median_call_us(int reps, Fn&& fn) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ms();
    fn();
    v.push_back((now_ms() - t0) * 1000.0);
  }
  return median(std::move(v));
}

constexpr int kReplayReps = 41;

}  // namespace

Counts replay_wackamole(apps::ClusterScenario& s,
                        const std::vector<util::Bytes>& state_samples) {
  Counts out;
  volatile std::size_t sink = 0;

  if (!state_samples.empty()) {
    std::vector<wackamole::StateMsgV2> decoded;
    for (const auto& b : state_samples) {
      decoded.push_back(wackamole::decode_state_v2(b));
    }
    const double n = static_cast<double>(state_samples.size());
    out["wam.state_decode_us"] = median_call_us(kReplayReps, [&] {
      for (const auto& b : state_samples) {
        sink = sink + wackamole::decode_state_v2(b).owned.size();
      }
    }) / n;
    out["wam.state_encode_us"] = median_call_us(kReplayReps, [&] {
      for (const auto& m : decoded) {
        sink = sink + wackamole::encode_state_v2(m).size();
      }
    }) / n;
  }

  const wackamole::Daemon& d = s.wam(0);
  if (!d.view()) return out;
  const wackamole::GroupSet groups(d.config().group_names());
  std::vector<wackamole::MemberInfo> infos;
  for (const auto& m : d.view()->members) {
    wackamole::MemberInfo info;
    info.id = m;
    info.mature = true;
    infos.push_back(info);
  }
  const auto members = wackamole::to_member_states(groups, infos);
  const wackamole::VipTable& table = d.table();
  out["wam.balance_us"] = median_call_us(kReplayReps, [&] {
    sink = sink + wackamole::balance_ips_fast(groups, table, members).size();
  });

  // Fail-over input: the owner of the first group leaves; its groups are
  // uncovered and the survivors reallocate them.
  const auto victim = table.owner(groups.ids.front());
  if (!victim) return out;
  wackamole::VipTable orphaned = table;
  for (const auto id : groups.ids) {
    const auto owner = orphaned.owner(id);
    if (owner && *owner == *victim) orphaned.clear_owner(id);
  }
  std::vector<wackamole::MemberInfo> survivors;
  for (const auto& info : infos) {
    if (!(info.id == *victim)) survivors.push_back(info);
  }
  const auto remaining = wackamole::to_member_states(groups, survivors);
  out["wam.reallocate_us"] = median_call_us(kReplayReps, [&] {
    sink = sink +
           wackamole::reallocate_ips_fast(groups, orphaned, remaining).size();
  });
  return out;
}

}  // namespace perfbench
