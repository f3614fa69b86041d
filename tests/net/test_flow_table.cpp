#include "net/flow_table.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace monohids::net {
namespace {

using util::kMicrosPerMinute;
using util::kMicrosPerSecond;

const Ipv4Address kHost = Ipv4Address::parse("10.0.0.1");
const Ipv4Address kServer = Ipv4Address::parse("93.0.0.1");

FiveTuple out_tcp(std::uint16_t sport = 50000, std::uint16_t dport = 80) {
  return {kHost, kServer, sport, dport, Protocol::Tcp};
}

FiveTuple out_udp(std::uint16_t sport = 50000, std::uint16_t dport = 53) {
  return {kHost, kServer, sport, dport, Protocol::Udp};
}

PacketRecord pkt(util::Timestamp t, FiveTuple tuple, TcpFlags flags = TcpFlags::None) {
  return {t, tuple, flags, 0};
}

std::vector<FlowEvent> starts(std::vector<FlowEvent> events) {
  std::erase_if(events, [](const FlowEvent& e) { return e.kind != FlowEventKind::Start; });
  return events;
}

TEST(FlowTable, TcpSynOpensConnection) {
  FlowTable table(kHost);
  table.process(pkt(100, out_tcp(), TcpFlags::Syn));
  const auto events = table.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlowEventKind::Start);
  EXPECT_TRUE(events[0].initiated_by_monitored_host);
  EXPECT_EQ(events[0].timestamp, 100u);
  EXPECT_EQ(table.active_flows(), 1u);
}

TEST(FlowTable, StrayTcpPacketDoesNotOpenConnection) {
  FlowTable table(kHost);
  table.process(pkt(100, out_tcp(), TcpFlags::Ack));
  EXPECT_TRUE(table.drain_events().empty());
  EXPECT_EQ(table.active_flows(), 0u);
}

TEST(FlowTable, FullTcpLifecycleEndsWithFin) {
  FlowTable table(kHost);
  const FiveTuple t = out_tcp();
  table.process(pkt(0, t, TcpFlags::Syn));
  table.process(pkt(100, t.reversed(), TcpFlags::Syn | TcpFlags::Ack));
  table.process(pkt(200, t, TcpFlags::Ack));
  table.process(pkt(300, t, TcpFlags::Fin | TcpFlags::Ack));
  table.process(pkt(400, t.reversed(), TcpFlags::Fin | TcpFlags::Ack));
  const auto events = table.drain_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, FlowEventKind::End);
  EXPECT_EQ(events[1].end_reason, FlowEndReason::Fin);
  EXPECT_EQ(events[1].packets, 5u);
  EXPECT_EQ(table.active_flows(), 0u);
  EXPECT_EQ(table.stats().flows_ended_fin, 1u);
}

TEST(FlowTable, OneSidedFinKeepsFlowAlive) {
  FlowTable table(kHost);
  const FiveTuple t = out_tcp();
  table.process(pkt(0, t, TcpFlags::Syn));
  table.process(pkt(100, t, TcpFlags::Fin | TcpFlags::Ack));
  (void)table.drain_events();
  EXPECT_EQ(table.active_flows(), 1u);
}

TEST(FlowTable, RstTerminatesImmediately) {
  FlowTable table(kHost);
  const FiveTuple t = out_tcp();
  table.process(pkt(0, t, TcpFlags::Syn));
  table.process(pkt(100, t.reversed(), TcpFlags::Rst));
  const auto events = table.drain_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].end_reason, FlowEndReason::Rst);
  EXPECT_EQ(table.stats().flows_ended_rst, 1u);
}

TEST(FlowTable, SynRetransmissionDoesNotDoubleCount) {
  FlowTable table(kHost);
  const FiveTuple t = out_tcp();
  table.process(pkt(0, t, TcpFlags::Syn));
  table.process(pkt(3 * kMicrosPerSecond, t, TcpFlags::Syn));  // retransmit
  EXPECT_EQ(starts(table.drain_events()).size(), 1u);
  EXPECT_EQ(table.stats().flows_created, 1u);
  EXPECT_EQ(table.stats().syn_packets, 2u);  // raw SYNs still counted
}

TEST(FlowTable, SynAckIsNotARawSyn) {
  FlowTable table(kHost);
  const FiveTuple t = out_tcp();
  table.process(pkt(0, t, TcpFlags::Syn));
  table.process(pkt(100, t.reversed(), TcpFlags::Syn | TcpFlags::Ack));
  EXPECT_EQ(table.stats().syn_packets, 1u);
}

TEST(FlowTable, UdpFirstPacketOpensFlow) {
  FlowTable table(kHost);
  table.process(pkt(0, out_udp()));
  table.process(pkt(100, out_udp().reversed()));  // response joins the flow
  const auto events = table.drain_events();
  ASSERT_EQ(starts(events).size(), 1u);
  EXPECT_EQ(table.active_flows(), 1u);
}

TEST(FlowTable, UdpIdleTimeoutEndsFlow) {
  FlowTableConfig config;
  config.udp_idle_timeout = kMicrosPerMinute;
  FlowTable table(kHost, config);
  table.process(pkt(0, out_udp()));
  table.advance_to(2 * kMicrosPerMinute);
  const auto events = table.drain_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].end_reason, FlowEndReason::IdleTimeout);
  EXPECT_EQ(table.active_flows(), 0u);
}

TEST(FlowTable, TcpTimeoutIsLongerThanUdp) {
  FlowTableConfig config;  // defaults: tcp 5 min, udp 1 min
  FlowTable table(kHost, config);
  table.process(pkt(0, out_tcp(50000), TcpFlags::Syn));
  table.process(pkt(0, out_udp(50001)));
  table.advance_to(2 * kMicrosPerMinute);
  EXPECT_EQ(table.active_flows(), 1u);  // UDP evicted, TCP still tracked
  table.advance_to(6 * kMicrosPerMinute);
  EXPECT_EQ(table.active_flows(), 0u);
}

TEST(FlowTable, NewUdpFlowAfterTimeoutCountsAgain) {
  FlowTableConfig config;
  config.udp_idle_timeout = kMicrosPerMinute;
  FlowTable table(kHost, config);
  table.process(pkt(0, out_udp()));
  table.advance_to(3 * kMicrosPerMinute);
  table.process(pkt(3 * kMicrosPerMinute + 1, out_udp()));
  EXPECT_EQ(starts(table.drain_events()).size(), 2u);
}

TEST(FlowTable, InboundConnectionIsNotMarkedLocal) {
  FlowTable table(kHost);
  const FiveTuple inbound{kServer, kHost, 40000, 445, Protocol::Tcp};
  table.process(pkt(0, inbound, TcpFlags::Syn));
  const auto events = table.drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].initiated_by_monitored_host);
}

TEST(FlowTable, FlushEndsEverything) {
  FlowTable table(kHost);
  table.process(pkt(0, out_tcp(50000), TcpFlags::Syn));
  table.process(pkt(10, out_udp(50001)));
  table.flush(1000);
  const auto events = table.drain_events();
  std::size_t ends = 0;
  for (const auto& e : events) {
    if (e.kind == FlowEventKind::End) {
      ++ends;
      EXPECT_EQ(e.end_reason, FlowEndReason::Flush);
    }
  }
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(table.active_flows(), 0u);
  // Flushed flows never idled out; they are accounted in their own counter.
  EXPECT_EQ(table.stats().flows_ended_flush, 2u);
  EXPECT_EQ(table.stats().flows_ended_timeout, 0u);
}

TEST(FlowTable, FlushDoesNotAbsorbIdleTimeouts) {
  FlowTableConfig config;
  config.udp_idle_timeout = kMicrosPerMinute;
  FlowTable table(kHost, config);
  table.process(pkt(0, out_udp(50001)));
  table.advance_to(2 * kMicrosPerMinute);  // UDP flow idles out here
  table.process(pkt(2 * kMicrosPerMinute, out_tcp(50000), TcpFlags::Syn));
  table.flush(2 * kMicrosPerMinute + 1);  // only the live TCP flow remains
  EXPECT_EQ(table.stats().flows_ended_timeout, 1u);
  EXPECT_EQ(table.stats().flows_ended_flush, 1u);
}

TEST(FlowTable, RejectsForeignPackets) {
  FlowTable table(kHost);
  const FiveTuple foreign{Ipv4Address::parse("1.1.1.1"), Ipv4Address::parse("2.2.2.2"),
                          1, 2, Protocol::Tcp};
  EXPECT_THROW(table.process(pkt(0, foreign, TcpFlags::Syn)), PreconditionError);
}

TEST(FlowTable, RejectsTimeTravel) {
  FlowTable table(kHost);
  table.process(pkt(100, out_tcp(), TcpFlags::Syn));
  EXPECT_THROW(table.process(pkt(50, out_tcp(50001), TcpFlags::Syn)), PreconditionError);
  EXPECT_THROW(table.advance_to(10), PreconditionError);
}

TEST(FlowTable, StatsCountPackets) {
  FlowTable table(kHost);
  const FiveTuple t = out_tcp();
  table.process(pkt(0, t, TcpFlags::Syn));
  table.process(pkt(100, t.reversed(), TcpFlags::Syn | TcpFlags::Ack));
  table.process(pkt(200, t, TcpFlags::Ack));
  EXPECT_EQ(table.stats().packets_processed, 3u);
  EXPECT_EQ(table.stats().flows_created, 1u);
}

TEST(FlowTable, ManyConcurrentFlows) {
  FlowTable table(kHost);
  for (std::uint16_t i = 0; i < 1000; ++i) {
    table.process(pkt(i, out_tcp(static_cast<std::uint16_t>(40000 + i)), TcpFlags::Syn));
  }
  EXPECT_EQ(table.active_flows(), 1000u);
  EXPECT_EQ(starts(table.drain_events()).size(), 1000u);
}

// Regression for the seed's sweep hazard: expired flows were emitted in hash
// iteration order, which depends on insertion history. Timeout End events
// must come out in (expiry deadline, tuple) order no matter how the flows
// went in.
TEST(FlowTable, SweepOrderIndependentOfInsertionOrder) {
  std::vector<std::uint16_t> ports;
  for (std::uint16_t i = 0; i < 64; ++i) ports.push_back(static_cast<std::uint16_t>(50000 + i));

  std::vector<FlowEvent> baseline;
  for (int perm = 0; perm < 8; ++perm) {
    FlowTableConfig config;
    config.udp_idle_timeout = kMicrosPerMinute;
    FlowTable table(kHost, config);
    // All flows at t=0 (identical deadlines), inserted in a rotated order.
    for (std::size_t i = 0; i < ports.size(); ++i) {
      const std::uint16_t port = ports[(i + static_cast<std::size_t>(perm) * 11) % ports.size()];
      table.process(pkt(0, out_udp(port)));
    }
    (void)table.drain_events();  // discard Starts (insertion-ordered by design)
    table.advance_to(2 * kMicrosPerMinute);
    const std::vector<FlowEvent> ends = table.drain_events();
    ASSERT_EQ(ends.size(), ports.size());
    for (std::size_t i = 1; i < ends.size(); ++i) {
      ASSERT_TRUE(ends[i - 1].tuple < ends[i].tuple) << "permutation " << perm;
    }
    if (perm == 0) {
      baseline = ends;
    } else {
      ASSERT_EQ(ends, baseline) << "permutation " << perm;
    }
  }
}

TEST(FlowTable, MaxLiveFlowsTracksPeakOccupancy) {
  FlowTableConfig config;
  config.udp_idle_timeout = kMicrosPerMinute;
  FlowTable table(kHost, config);
  for (std::uint16_t i = 0; i < 10; ++i) table.process(pkt(0, out_udp(static_cast<std::uint16_t>(50000 + i))));
  EXPECT_EQ(table.stats().max_live_flows, 10u);
  table.advance_to(2 * kMicrosPerMinute);  // all idle out
  EXPECT_EQ(table.active_flows(), 0u);
  for (std::uint16_t i = 0; i < 3; ++i) {
    table.process(pkt(2 * kMicrosPerMinute, out_udp(static_cast<std::uint16_t>(51000 + i))));
  }
  // Peak stays at the high-water mark, not the current occupancy.
  EXPECT_EQ(table.stats().max_live_flows, 10u);
}

}  // namespace
}  // namespace monohids::net
