#include "net/trace.hpp"

#include "net/host.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace wam::net {
namespace {

struct TraceTest : ::testing::Test {
  sim::Scheduler sched;
  Fabric fabric{sched};
  SegmentId seg = fabric.add_segment();
  FrameTrace trace{sched, fabric};
  std::unique_ptr<Host> a, b;

  void SetUp() override {
    a = std::make_unique<Host>(sched, fabric, "a");
    a->add_interface(seg, Ipv4Address(10, 0, 0, 1), 24);
    b = std::make_unique<Host>(sched, fabric, "b");
    b->add_interface(seg, Ipv4Address(10, 0, 0, 2), 24);
  }
};

TEST_F(TraceTest, CapturesArpExchange) {
  b->open_udp(7, [](const Host::UdpContext&, const util::Bytes&) {});
  a->send_udp(Ipv4Address(10, 0, 0, 2), 7, 7, {1});
  sched.run_all();
  EXPECT_EQ(trace.count("ARP who-has 10.0.0.2"), 1u);
  EXPECT_EQ(trace.count("is-at"), 1u);
  EXPECT_EQ(trace.count("UDP 10.0.0.1:7 > 10.0.0.2:7"), 1u);
}

TEST_F(TraceTest, CapturesGratuitousArp) {
  a->add_alias(0, Ipv4Address(10, 0, 0, 100));
  a->send_gratuitous_arp(0, Ipv4Address(10, 0, 0, 100));
  sched.run_all();
  EXPECT_EQ(trace.count("gratuitous"), 1u);
}

TEST_F(TraceTest, DumpIsTimestampedAndOrdered) {
  b->open_udp(7, [](const Host::UdpContext&, const util::Bytes&) {});
  a->send_udp(Ipv4Address(10, 0, 0, 2), 7, 7, {1});
  sched.run_all();
  auto dump = trace.dump();
  EXPECT_NE(dump.find("seg0"), std::string::npos);
  // ARP request precedes the UDP payload frame.
  EXPECT_LT(dump.find("who-has"), dump.find("UDP"));
}

TEST_F(TraceTest, CapacityBoundsRing) {
  FrameTrace small(sched, fabric, 4);
  b->open_udp(7, [](const Host::UdpContext&, const util::Bytes&) {});
  for (int i = 0; i < 20; ++i) {
    a->send_udp(Ipv4Address(10, 0, 0, 2), 7, 7, {1});
  }
  sched.run_all();
  EXPECT_LE(small.size(), 4u);
}

TEST_F(TraceTest, SummarizeMalformedFrames) {
  Frame bogus{MacAddress::from_index(1), MacAddress::from_index(2),
              EtherType::kIpv4, {1, 2}};
  EXPECT_EQ(FrameTrace::summarize(bogus), "IPv4 <malformed>");
  Frame bogus_arp{MacAddress::from_index(1), MacAddress::from_index(2),
                  EtherType::kArp, {9}};
  EXPECT_EQ(FrameTrace::summarize(bogus_arp), "ARP <malformed>");
}

TEST_F(TraceTest, DestructionDetachesFromFabric) {
  auto scoped = std::make_unique<FrameTrace>(sched, fabric);
  a->send_gratuitous_arp(0, Ipv4Address(10, 0, 0, 1));
  sched.run_all();
  EXPECT_EQ(scoped->count("gratuitous"), 1u);
  scoped.reset();
  // Frames sent after the trace is gone reach no tap.
  a->send_gratuitous_arp(0, Ipv4Address(10, 0, 0, 1));
  sched.run_all();
  EXPECT_EQ(trace.size(), 0u);
}

TEST_F(TraceTest, ClearEmptiesRecords) {
  a->send_gratuitous_arp(0, Ipv4Address(10, 0, 0, 1));
  sched.run_all();
  EXPECT_GT(trace.size(), 0u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

}  // namespace
}  // namespace wam::net
