#include "net/host.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wam::net {

namespace {

// Single source of truth for the host metric names: bind() and
// export_into() both enumerate through here.
template <typename Counters, typename Fn>
void for_each_host_metric(Counters& c, Fn&& fn) {
  fn("udp_sent", c.udp_sent);
  fn("udp_received", c.udp_received);
  fn("udp_no_socket", c.udp_no_socket);
  fn("ip_forwarded", c.ip_forwarded);
  fn("ip_no_route", c.ip_no_route);
  fn("ip_not_ours", c.ip_not_ours);
  fn("arp_requests_sent", c.arp_requests_sent);
  fn("arp_replies_sent", c.arp_replies_sent);
  fn("arp_resolution_failures", c.arp_resolution_failures);
  fn("decode_errors", c.decode_errors);
}

}  // namespace

void HostCounters::bind(obs::MetricRegistry& registry,
                        const std::string& scope) {
  for_each_host_metric(*this, [&](const char* name, obs::Counter& c) {
    registry.bind(c, scope + "/" + name);
  });
}

void HostCounters::export_into(obs::MetricRegistry& registry,
                               const std::string& scope) const {
  for_each_host_metric(*this, [&](const char* name, const obs::Counter& c) {
    registry.counter(scope + "/" + name) = c.value();
  });
}

void Host::bind_observability(obs::Observability& obs, std::string scope) {
  counters_.bind(obs.registry, scope);
}

Host::Host(sim::Scheduler& sched, Fabric& fabric, std::string name,
           sim::Log* log)
    : sched_(sched),
      fabric_(fabric),
      name_(std::move(name)),
      log_(log, "net/" + name_) {}

int Host::add_interface(SegmentId segment, Ipv4Address primary,
                        int prefix_len) {
  Interface ifc;
  ifc.segment = segment;
  ifc.primary = primary;
  ifc.net = Ipv4Network(primary, prefix_len);
  auto ifindex = static_cast<int>(ifaces_.size());
  ifc.nic = fabric_.attach(segment, fabric_.allocate_mac(),
                           [this](const Frame& f, NicId nic) {
                             receive(f, nic);
                           });
  // Answer peers' duplicate-address probes: we "defend" every address we
  // currently own on this interface, primary and aliases alike.
  fabric_.set_address_probe(ifc.nic, [this, ifindex](Ipv4Address ip) {
    const auto& i = ifaces_[static_cast<std::size_t>(ifindex)];
    return i.primary == ip || i.aliases.count(ip) > 0;
  });
  ifaces_.push_back(std::move(ifc));
  return ifindex;
}

bool Host::probe_address(int ifindex, Ipv4Address ip) const {
  return fabric_.address_in_use(iface(ifindex).nic, ip);
}

const Host::Interface& Host::iface(int ifindex) const {
  WAM_EXPECTS(ifindex >= 0 && ifindex < interface_count());
  return ifaces_[static_cast<std::size_t>(ifindex)];
}

Host::Interface& Host::iface(int ifindex) {
  WAM_EXPECTS(ifindex >= 0 && ifindex < interface_count());
  return ifaces_[static_cast<std::size_t>(ifindex)];
}

Ipv4Address Host::primary_ip(int ifindex) const { return iface(ifindex).primary; }
MacAddress Host::mac(int ifindex) const {
  return fabric_.mac_of(iface(ifindex).nic);
}
NicId Host::nic_id(int ifindex) const { return iface(ifindex).nic; }
Ipv4Network Host::network(int ifindex) const { return iface(ifindex).net; }

void Host::add_alias(int ifindex, Ipv4Address ip) {
  iface(ifindex).aliases.insert(ip);
  if (log_.would_log(sim::LogLevel::kDebug)) {
    log_.debug("alias + %s on if%d", ip.to_string().c_str(), ifindex);
  }
}

void Host::remove_alias(int ifindex, Ipv4Address ip) {
  iface(ifindex).aliases.erase(ip);
  if (log_.would_log(sim::LogLevel::kDebug)) {
    log_.debug("alias - %s on if%d", ip.to_string().c_str(), ifindex);
  }
}

bool Host::owns_ip(Ipv4Address ip) const { return ifindex_of_ip(ip) >= 0; }

std::vector<Ipv4Address> Host::aliases(int ifindex) const {
  const auto& a = iface(ifindex).aliases;
  return {a.begin(), a.end()};
}

int Host::ifindex_of_ip(Ipv4Address ip) const {
  for (int i = 0; i < interface_count(); ++i) {
    const auto& ifc = ifaces_[static_cast<std::size_t>(i)];
    if (ifc.primary == ip || ifc.aliases.count(ip) > 0) return i;
  }
  return -1;
}

// ---------------------------------------------------------------- ARP ----

void Host::send_gratuitous_arp(int ifindex, Ipv4Address ip) {
  const auto& ifc = iface(ifindex);
  ArpPacket arp;
  arp.op = ArpOp::kReply;
  arp.sender_mac = mac(ifindex);
  arp.sender_ip = ip;
  arp.target_mac = MacAddress::broadcast();
  arp.target_ip = ip;  // sender==target marks it gratuitous
  Frame f{mac(ifindex), MacAddress::broadcast(), EtherType::kArp, arp.encode()};
  ++counters_.arp_replies_sent;
  if (log_.would_log(sim::LogLevel::kDebug)) {
    log_.debug("gratuitous ARP for %s", ip.to_string().c_str());
  }
  fabric_.send(ifc.nic, std::move(f));
}

void Host::send_spoofed_reply(int ifindex, Ipv4Address claimed_ip,
                              Ipv4Address target_ip) {
  const auto& ifc = iface(ifindex);
  auto target_mac = arp_.lookup(target_ip, sched_.now());
  if (!target_mac) {
    // Resolve the target first, then retry the spoof once resolution lands.
    send_arp_request(ifindex, target_ip);
    sched_.schedule(sim::milliseconds(5), [this, ifindex, claimed_ip,
                                           target_ip] {
      if (arp_.lookup(target_ip, sched_.now())) {
        send_spoofed_reply(ifindex, claimed_ip, target_ip);
      }
    });
    return;
  }
  ArpPacket arp;
  arp.op = ArpOp::kReply;
  arp.sender_mac = mac(ifindex);
  arp.sender_ip = claimed_ip;
  arp.target_mac = *target_mac;
  arp.target_ip = target_ip;
  Frame f{mac(ifindex), *target_mac, EtherType::kArp, arp.encode()};
  ++counters_.arp_replies_sent;
  if (log_.would_log(sim::LogLevel::kDebug)) {
    log_.debug("spoofed ARP reply: %s is-at %s -> %s",
               claimed_ip.to_string().c_str(),
               mac(ifindex).to_string().c_str(),
               target_ip.to_string().c_str());
  }
  fabric_.send(ifc.nic, std::move(f));
}

void Host::send_arp_request(int ifindex, Ipv4Address target) {
  const auto& ifc = iface(ifindex);
  ArpPacket arp;
  arp.op = ArpOp::kRequest;
  arp.sender_mac = mac(ifindex);
  arp.sender_ip = ifc.primary;
  arp.target_mac = MacAddress{};
  arp.target_ip = target;
  Frame f{mac(ifindex), MacAddress::broadcast(), EtherType::kArp, arp.encode()};
  ++counters_.arp_requests_sent;
  fabric_.send(ifc.nic, std::move(f));
}

void Host::handle_arp(const Frame& frame, int ifindex) {
  ArpPacket arp;
  try {
    arp = ArpPacket::decode(frame.payload);
  } catch (const util::DecodeError&) {
    ++counters_.decode_errors;
    return;
  }
  const auto& ifc = iface(ifindex);
  bool for_me = arp.target_ip == ifc.primary ||
                ifc.aliases.count(arp.target_ip) > 0;
  auto now = sched_.now();

  if (arp.op == ArpOp::kRequest) {
    // Requests that target us insert the sender's mapping (we will likely
    // reply to it momentarily) and trigger a unicast reply.
    if (for_me && !arp.is_gratuitous()) {
      arp_.put(arp.sender_ip, arp.sender_mac, now);
      ArpPacket reply;
      reply.op = ArpOp::kReply;
      reply.sender_mac = mac(ifindex);
      reply.sender_ip = arp.target_ip;
      reply.target_mac = arp.sender_mac;
      reply.target_ip = arp.sender_ip;
      Frame f{mac(ifindex), arp.sender_mac, EtherType::kArp, reply.encode()};
      ++counters_.arp_replies_sent;
      fabric_.send(ifc.nic, std::move(f));
    } else if (arp.is_gratuitous()) {
      arp_.update_existing(arp.sender_ip, arp.sender_mac, now);
    }
    return;
  }

  // Replies: unicast replies to us insert/update; broadcast gratuitous
  // announcements only refresh entries we already hold.
  if (frame.dst == mac(ifindex)) {
    arp_.put(arp.sender_ip, arp.sender_mac, now);
    flush_pending(arp.sender_ip);
  } else if (arp.is_gratuitous()) {
    if (arp_.update_existing(arp.sender_ip, arp.sender_mac, now)) {
      flush_pending(arp.sender_ip);
    }
  }
}

void Host::arp_retry(Ipv4Address next_hop) {
  auto it = pending_arp_.find(next_hop);
  if (it == pending_arp_.end()) return;
  auto& pending = it->second;
  if (pending.retries >= arp_max_retries) {
    counters_.arp_resolution_failures += pending.queue.size();
    log_.debug("ARP resolution failed for %s, dropping %zu packets",
               next_hop.to_string().c_str(), pending.queue.size());
    pending_arp_.erase(it);
    return;
  }
  ++pending.retries;
  send_arp_request(pending.ifindex, next_hop);
  pending.timer = sched_.schedule(arp_retry_interval,
                                  [this, next_hop] { arp_retry(next_hop); });
}

void Host::flush_pending(Ipv4Address resolved_ip) {
  auto it = pending_arp_.find(resolved_ip);
  if (it == pending_arp_.end()) return;
  auto pending = std::move(it->second);
  pending.timer.cancel();
  pending_arp_.erase(it);
  for (auto& pkt : pending.queue) {
    transmit_ip(std::move(pkt), pending.ifindex, resolved_ip);
  }
}

// ----------------------------------------------------------------- IP ----

std::pair<int, Ipv4Address> Host::route(Ipv4Address dst) const {
  // Connected routes first (longest prefix wins among attached networks).
  int best = -1;
  int best_len = -1;
  for (int i = 0; i < interface_count(); ++i) {
    const auto& ifc = ifaces_[static_cast<std::size_t>(i)];
    if (ifc.net.contains(dst) && ifc.net.prefix_len() > best_len) {
      best = i;
      best_len = ifc.net.prefix_len();
    }
  }
  if (best >= 0) return {best, dst};

  // Static routes (first match; scenarios keep these short).
  for (const auto& [net, via] : static_routes_) {
    if (net.contains(dst)) {
      auto [ifidx, hop] = route(via);
      if (ifidx >= 0 && hop == via) return {ifidx, via};
    }
  }

  if (!default_gateway_.is_any()) {
    for (int i = 0; i < interface_count(); ++i) {
      if (ifaces_[static_cast<std::size_t>(i)].net.contains(default_gateway_)) {
        return {i, default_gateway_};
      }
    }
  }
  return {-1, Ipv4Address{}};
}

void Host::transmit_ip(Ipv4Packet pkt, int ifindex, Ipv4Address next_hop) {
  const auto& ifc = iface(ifindex);
  if (pkt.dst.is_broadcast()) {
    Frame f{mac(ifindex), MacAddress::broadcast(), EtherType::kIpv4,
            pkt.encode()};
    fabric_.send(ifc.nic, std::move(f));
    return;
  }
  auto hop_mac = arp_.lookup(next_hop, sched_.now());
  if (hop_mac) {
    Frame f{mac(ifindex), *hop_mac, EtherType::kIpv4, pkt.encode()};
    fabric_.send(ifc.nic, std::move(f));
    return;
  }
  // Queue behind an ARP resolution.
  auto [it, inserted] = pending_arp_.try_emplace(next_hop);
  auto& pending = it->second;
  if (inserted) {
    pending.ifindex = ifindex;
    send_arp_request(ifindex, next_hop);
    pending.timer = sched_.schedule(arp_retry_interval,
                                    [this, next_hop] { arp_retry(next_hop); });
  }
  if (pending.queue.size() < arp_queue_cap) {
    pending.queue.push_back(std::move(pkt));
  }
}

void Host::handle_ipv4(const Frame& frame, int ifindex) {
  Ipv4Packet pkt;
  try {
    pkt = Ipv4Packet::decode(frame.payload);
  } catch (const util::DecodeError&) {
    ++counters_.decode_errors;
    return;
  }
  if (pkt.dst.is_broadcast() || owns_ip(pkt.dst)) {
    deliver_udp(pkt, ifindex);
    return;
  }
  if (pkt.dst.is_multicast()) {
    if (in_multicast_group(ifindex, pkt.dst)) deliver_udp(pkt, ifindex);
    return;  // never forwarded (single-segment multicast model)
  }
  if (forwarding_) {
    forward(std::move(pkt));
    return;
  }
  ++counters_.ip_not_ours;
}

void Host::forward(Ipv4Packet pkt) {
  if (pkt.ttl <= 1) return;
  --pkt.ttl;
  auto [ifindex, next_hop] = route(pkt.dst);
  if (ifindex < 0) {
    ++counters_.ip_no_route;
    return;
  }
  ++counters_.ip_forwarded;
  transmit_ip(std::move(pkt), ifindex, next_hop);
}

void Host::deliver_udp(const Ipv4Packet& pkt, int ifindex) {
  if (pkt.protocol != kProtoUdp) return;
  UdpDatagram dgram;
  try {
    dgram = UdpDatagram::decode(pkt.payload);
  } catch (const util::DecodeError&) {
    ++counters_.decode_errors;
    return;
  }
  auto it = sockets_.find(dgram.dst_port);
  if (it == sockets_.end()) {
    ++counters_.udp_no_socket;
    return;
  }
  ++counters_.udp_received;
  UdpContext ctx{pkt.src, dgram.src_port, pkt.dst, dgram.dst_port, ifindex};
  // Copy the handler: it may close/reopen the socket reentrantly.
  auto handler = it->second;
  handler(ctx, dgram.payload);
}

// ---------------------------------------------------------------- UDP ----

bool Host::open_udp(std::uint16_t port, UdpHandler handler) {
  WAM_EXPECTS(handler != nullptr);
  return sockets_.emplace(port, std::move(handler)).second;
}

void Host::close_udp(std::uint16_t port) { sockets_.erase(port); }

void Host::send_udp(Ipv4Address dst, std::uint16_t dst_port,
                    std::uint16_t src_port, util::Bytes payload) {
  auto [ifindex, next_hop] = route(dst);
  if (ifindex < 0) {
    ++counters_.ip_no_route;
    return;
  }
  send_udp_from(primary_ip(ifindex), dst, dst_port, src_port,
                std::move(payload));
}

void Host::send_udp_from(Ipv4Address src_ip, Ipv4Address dst,
                         std::uint16_t dst_port, std::uint16_t src_port,
                         util::Bytes payload) {
  if (owns_ip(dst)) {
    // Loopback: deliver on the next scheduler round, like a kernel would.
    UdpDatagram dgram{src_port, dst_port, std::move(payload)};
    Ipv4Packet pkt;
    pkt.src = src_ip;
    pkt.dst = dst;
    pkt.payload = dgram.encode();
    ++counters_.udp_sent;
    int ifindex = std::max(ifindex_of_ip(dst), 0);
    sched_.schedule(sim::kZero, [this, pkt = std::move(pkt), ifindex] {
      deliver_udp(pkt, ifindex);
    });
    return;
  }
  auto [ifindex, next_hop] = route(dst);
  if (ifindex < 0) {
    ++counters_.ip_no_route;
    return;
  }
  UdpDatagram dgram{src_port, dst_port, std::move(payload)};
  Ipv4Packet pkt;
  pkt.src = src_ip;
  pkt.dst = dst;
  pkt.payload = dgram.encode();
  ++counters_.udp_sent;
  transmit_ip(std::move(pkt), ifindex, next_hop);
}

void Host::send_udp_burst(std::vector<UdpSend> batch) {
  std::vector<std::vector<Frame>> per_if(ifaces_.size());
  for (auto& item : batch) {
    auto [ifindex, next_hop] = route(item.dst);
    if (ifindex < 0) {
      ++counters_.ip_no_route;
      continue;
    }
    if (owns_ip(item.dst)) {
      send_udp_from(primary_ip(ifindex), item.dst, item.dst_port,
                    item.src_port, std::move(item.payload));
      continue;
    }
    UdpDatagram dgram{item.src_port, item.dst_port, std::move(item.payload)};
    Ipv4Packet pkt;
    pkt.src = primary_ip(ifindex);
    pkt.dst = item.dst;
    pkt.payload = dgram.encode();
    ++counters_.udp_sent;
    auto hop_mac = arp_.lookup(next_hop, sched_.now());
    if (!hop_mac) {
      // Unresolved next hop: take the regular pending-ARP queue path.
      transmit_ip(std::move(pkt), ifindex, next_hop);
      continue;
    }
    per_if[static_cast<std::size_t>(ifindex)].push_back(
        Frame{mac(ifindex), *hop_mac, EtherType::kIpv4, pkt.encode()});
  }
  for (std::size_t i = 0; i < per_if.size(); ++i) {
    if (!per_if[i].empty()) {
      fabric_.send_batch(ifaces_[i].nic, std::move(per_if[i]));
    }
  }
}

void Host::join_multicast(int ifindex, Ipv4Address group) {
  WAM_EXPECTS(group.is_multicast());
  auto& ifc = iface(ifindex);
  if (ifc.multicast_groups.insert(group).second) {
    fabric_.add_mac_filter(ifc.nic, MacAddress::multicast_for(group));
  }
}

void Host::leave_multicast(int ifindex, Ipv4Address group) {
  auto& ifc = iface(ifindex);
  if (ifc.multicast_groups.erase(group) > 0) {
    fabric_.remove_mac_filter(ifc.nic, MacAddress::multicast_for(group));
  }
}

bool Host::in_multicast_group(int ifindex, Ipv4Address group) const {
  return iface(ifindex).multicast_groups.count(group) > 0;
}

void Host::send_udp_multicast(int ifindex, Ipv4Address group,
                              std::uint16_t dst_port, std::uint16_t src_port,
                              util::Bytes payload) {
  WAM_EXPECTS(group.is_multicast());
  UdpDatagram dgram{src_port, dst_port, std::move(payload)};
  Ipv4Packet pkt;
  pkt.src = primary_ip(ifindex);
  pkt.dst = group;
  pkt.payload = dgram.encode();
  ++counters_.udp_sent;
  Frame f{mac(ifindex), MacAddress::multicast_for(group), EtherType::kIpv4,
          pkt.encode()};
  fabric_.send(iface(ifindex).nic, std::move(f));
  // Multicast loops back to local members of the group.
  if (in_multicast_group(ifindex, group)) {
    sched_.schedule(sim::kZero, [this, pkt = std::move(pkt), ifindex] {
      deliver_udp(pkt, ifindex);
    });
  }
}

void Host::send_udp_broadcast(int ifindex, std::uint16_t dst_port,
                              std::uint16_t src_port, util::Bytes payload) {
  UdpDatagram dgram{src_port, dst_port, std::move(payload)};
  Ipv4Packet pkt;
  pkt.src = primary_ip(ifindex);
  pkt.dst = Ipv4Address::broadcast();
  pkt.payload = dgram.encode();
  ++counters_.udp_sent;
  transmit_ip(std::move(pkt), ifindex, Ipv4Address::broadcast());
}

// -------------------------------------------------------------- faults ----

void Host::set_interface_up(int ifindex, bool up) {
  fabric_.set_nic_up(iface(ifindex).nic, up);
}

bool Host::interface_up(int ifindex) const {
  return fabric_.nic_up(iface(ifindex).nic);
}

void Host::fail() {
  for (int i = 0; i < interface_count(); ++i) set_interface_up(i, false);
}

void Host::recover() {
  for (int i = 0; i < interface_count(); ++i) set_interface_up(i, true);
}

bool Host::is_up() const {
  for (int i = 0; i < interface_count(); ++i) {
    if (interface_up(i)) return true;
  }
  return false;
}

// ------------------------------------------------------------- receive ----

void Host::receive(const Frame& frame, NicId nic) {
  int ifindex = -1;
  for (int i = 0; i < interface_count(); ++i) {
    if (ifaces_[static_cast<std::size_t>(i)].nic == nic) {
      ifindex = i;
      break;
    }
  }
  WAM_ASSERT(ifindex >= 0);
  switch (frame.type) {
    case EtherType::kArp:
      handle_arp(frame, ifindex);
      break;
    case EtherType::kIpv4:
      handle_ipv4(frame, ifindex);
      break;
  }
}

void Host::add_route(Ipv4Network dst, Ipv4Address next_hop) {
  static_routes_.emplace_back(dst, next_hop);
}

}  // namespace wam::net
