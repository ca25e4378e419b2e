#include "net/trace.hpp"

#include <cstdio>

namespace wam::net {

FrameTrace::FrameTrace(sim::Scheduler& sched, Fabric& fabric,
                       std::size_t capacity)
    : sched_(sched), fabric_(fabric), capacity_(capacity) {
  fabric_.set_tap([this](SegmentId seg, const Frame& frame) {
    records_.push_back(Record{sched_.now(), seg, summarize(frame)});
    if (records_.size() > capacity_) records_.pop_front();
  });
}

FrameTrace::~FrameTrace() { fabric_.set_tap(nullptr); }

std::string FrameTrace::summarize(const Frame& frame) {
  switch (frame.type) {
    case EtherType::kArp: {
      try {
        return "ARP " + ArpPacket::decode(frame.payload).describe();
      } catch (const util::DecodeError&) {
        return "ARP <malformed>";
      }
    }
    case EtherType::kIpv4: {
      try {
        auto pkt = Ipv4Packet::decode(frame.payload);
        if (pkt.protocol == kProtoUdp) {
          auto udp = UdpDatagram::decode(pkt.payload);
          char buf[96];
          std::snprintf(buf, sizeof(buf), "UDP %s:%u > %s:%u %zuB",
                        pkt.src.to_string().c_str(), udp.src_port,
                        pkt.dst.to_string().c_str(), udp.dst_port,
                        udp.payload.size());
          return buf;
        }
        return "IPv4 " + pkt.src.to_string() + " > " + pkt.dst.to_string() +
               " proto=" + std::to_string(pkt.protocol);
      } catch (const util::DecodeError&) {
        return "IPv4 <malformed>";
      }
    }
  }
  return "<unknown ethertype>";
}

std::vector<FrameTrace::Record> FrameTrace::find(
    const std::string& needle) const {
  std::vector<Record> out;
  for (const auto& r : records_) {
    if (r.summary.find(needle) != std::string::npos) out.push_back(r);
  }
  return out;
}

std::size_t FrameTrace::count(const std::string& needle) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.summary.find(needle) != std::string::npos) ++n;
  }
  return n;
}

std::string FrameTrace::dump() const {
  std::string out;
  for (const auto& r : records_) {
    char head[48];
    std::snprintf(head, sizeof(head), "%12.6f seg%d  ",
                  sim::to_seconds(r.time.time_since_epoch()), r.segment);
    out += head;
    out += r.summary;
    out += '\n';
  }
  return out;
}

}  // namespace wam::net
