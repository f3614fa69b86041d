// Differential tests: the open-addressing FlowTable must be byte-identical
// to oracle::ReferenceFlowTable (the seed std::unordered_map tracker) on
// arbitrary valid traffic — same FlowEvent stream, same FlowTableStats.
// Randomized traces cover flow creation, FIN/RST teardown, idle-timeout
// sweeps, far time jumps, flush, and same-tuple flow reincarnation.
#include <gtest/gtest.h>

#include <vector>

#include "net/flow_table.hpp"
#include "oracle/flow_table.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace monohids::net {
namespace {

const Ipv4Address kHost = Ipv4Address::parse("10.0.0.1");

/// Small peer pool so tuples repeat and flows reincarnate after timeout.
PacketRecord random_packet(util::Xoshiro256& rng, util::Timestamp at) {
  PacketRecord p;
  p.timestamp = at;
  const bool outbound = rng.uniform01() < 0.7;
  const Ipv4Address peer(static_cast<std::uint32_t>(
      (93u << 24) + stats::sample_uniform_int(rng, 0, 40)));
  const auto sport = static_cast<std::uint16_t>(stats::sample_uniform_int(rng, 1024, 1090));
  const auto dport = static_cast<std::uint16_t>(stats::sample_uniform_int(rng, 1, 8));
  p.tuple = outbound ? FiveTuple{kHost, peer, sport, dport, Protocol::Tcp}
                     : FiveTuple{peer, kHost, sport, dport, Protocol::Tcp};
  const double proto = rng.uniform01();
  if (proto < 0.25) p.tuple.protocol = Protocol::Udp;
  if (proto < 0.05) p.tuple.protocol = Protocol::Icmp;
  if (p.tuple.protocol == Protocol::Tcp) {
    const double roll = rng.uniform01();
    if (roll < 0.35) {
      p.tcp_flags = TcpFlags::Syn;
    } else if (roll < 0.45) {
      p.tcp_flags = TcpFlags::Syn | TcpFlags::Ack;
    } else if (roll < 0.65) {
      p.tcp_flags = TcpFlags::Ack;
    } else if (roll < 0.8) {
      p.tcp_flags = TcpFlags::Fin | TcpFlags::Ack;
    } else if (roll < 0.88) {
      p.tcp_flags = TcpFlags::Rst;
    } else {
      p.tcp_flags = TcpFlags::Ack | TcpFlags::Psh;
    }
  }
  p.payload_bytes = static_cast<std::uint16_t>(stats::sample_uniform_int(rng, 0, 1460));
  return p;
}

std::vector<PacketRecord> random_trace(std::uint64_t seed, int packets) {
  util::Xoshiro256 rng(seed);
  std::vector<PacketRecord> trace;
  trace.reserve(static_cast<std::size_t>(packets));
  util::Timestamp now = 0;
  for (int i = 0; i < packets; ++i) {
    now += stats::sample_uniform_int(rng, 0, 3 * util::kMicrosPerSecond);
    // Occasional far jumps so idle timeouts and sweeps engage.
    if (rng.uniform01() < 0.01) now += 7 * util::kMicrosPerMinute;
    trace.push_back(random_packet(rng, now));
  }
  return trace;
}

/// Runs one trace through both implementations and asserts identical event
/// streams and stats, draining at every packet (the strictest comparison:
/// emission order inside each packet's sweep must match too).
void expect_identical(const std::vector<PacketRecord>& trace, const FlowTableConfig& config) {
  FlowTable table(kHost, config);
  oracle::ReferenceFlowTable reference(kHost, config);

  for (const PacketRecord& p : trace) {
    table.process(p);
    reference.process(p);
    const std::vector<FlowEvent> expected = reference.drain_events();
    const auto got = table.pending_events();
    ASSERT_EQ(got.size(), expected.size()) << "at packet ts=" << p.timestamp;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "event " << i << " at packet ts=" << p.timestamp;
    }
    table.clear_events();
    ASSERT_EQ(table.active_flows(), reference.active_flows());
  }

  const util::Timestamp eof = trace.empty() ? 1 : trace.back().timestamp + 1;
  table.flush(eof);
  reference.flush(eof);
  ASSERT_EQ(table.drain_events(), reference.drain_events());
  EXPECT_EQ(table.stats(), reference.stats());
  EXPECT_EQ(table.active_flows(), 0u);
}

/// Peak live-flow count of one trace under `config`.
std::uint64_t peak_live_flows(const std::vector<PacketRecord>& trace,
                              const FlowTableConfig& config) {
  FlowTable table(kHost, config);
  for (const PacketRecord& p : trace) table.process(p);
  return table.stats().max_live_flows;
}

class FlowTableDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// 250 seeds x 2 configurations = 500 random differential traces.
TEST_P(FlowTableDifferential, MatchesReferenceOnRandomTraffic) {
  const std::uint64_t seed = GetParam();
  const std::vector<PacketRecord> trace =
      random_trace(seed, /*packets=*/seed % 7 == 0 ? 2500 : 400);

  // Default config. The arena starts at 16 slots and doubles once more than
  // 12 flows are live, so every trace also regrows it mid-trace.
  ASSERT_GT(peak_live_flows(trace, FlowTableConfig{}), 12u);
  expect_identical(trace, FlowTableConfig{});

  // Short timeouts + frequent sweeps: lots of expiry/reincarnation churn.
  FlowTableConfig churn;
  churn.tcp_idle_timeout = 20 * util::kMicrosPerSecond;
  churn.udp_idle_timeout = 5 * util::kMicrosPerSecond;
  churn.sweep_interval = util::kMicrosPerSecond;
  expect_identical(trace, churn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableDifferential,
                         ::testing::Range<std::uint64_t>(1, 251));

// The arena can outgrow the dense-scan sweep limit mid-trace, which flips
// expiry to the timing wheel and arms every live flow at rehash time. The
// randomized traces above never reach that occupancy, so this drives it
// explicitly: thousands of concurrent flows, stale-entry rearms, a sweep gap
// longer than the wheel span, and wheel-driven timeouts must all match the
// reference byte for byte.
TEST(FlowTableDifferential, ScanToWheelTransitionMatchesReference) {
  FlowTableConfig config;
  config.tcp_idle_timeout = 20 * util::kMicrosPerSecond;
  config.udp_idle_timeout = 5 * util::kMicrosPerSecond;
  config.sweep_interval = util::kMicrosPerSecond;

  std::vector<PacketRecord> trace;
  util::Timestamp now = 0;
  const auto tuple_of = [](int i) {
    const Ipv4Address peer(static_cast<std::uint32_t>((93u << 24) + (i & 0xff)));
    return FiveTuple{kHost, peer, static_cast<std::uint16_t>(1024 + i), 80, Protocol::Tcp};
  };
  // 6000 distinct flows in ~18 s (inside the idle timeout): live occupancy
  // crosses the scan-sweep slot limit with the default tiny initial arena.
  for (int i = 0; i < 6000; ++i) {
    PacketRecord p;
    p.timestamp = now;
    p.tuple = tuple_of(i);
    p.tcp_flags = TcpFlags::Syn;
    trace.push_back(p);
    now += 3000;
  }
  // Touch a third of the flows: their armed wheel entries go stale and must
  // rearm when their original bucket is swept.
  for (int i = 0; i < 6000; i += 3) {
    PacketRecord p;
    p.timestamp = now;
    p.tuple = tuple_of(i);
    p.tcp_flags = TcpFlags::Ack;
    trace.push_back(p);
    now += 500;
  }
  // Keepalives on one fresh tuple: each triggers a sweep, draining idle
  // flows through the wheel; the final far jump leaves a gap longer than
  // the wheel span, exercising the one-pass whole-ring resolve.
  for (int i = 0; i < 60; ++i) {
    now += util::kMicrosPerSecond;
    PacketRecord p;
    p.timestamp = now;
    p.tuple = FiveTuple{kHost, Ipv4Address::parse("94.0.0.1"), 60000, 53, Protocol::Udp};
    trace.push_back(p);
  }
  {
    now += 5 * util::kMicrosPerMinute;
    PacketRecord p;
    p.timestamp = now;
    p.tuple = FiveTuple{kHost, Ipv4Address::parse("94.0.0.2"), 60001, 53, Protocol::Udp};
    trace.push_back(p);
  }
  expect_identical(trace, config);
}

// Advancing the clock without packets must expire the same flows in the
// same deterministic order in both implementations.
TEST(FlowTableDifferential, AdvanceToMatchesReference) {
  const std::vector<PacketRecord> trace = random_trace(424242, 600);
  FlowTableConfig config;
  config.sweep_interval = util::kMicrosPerSecond;

  FlowTable table(kHost, config);
  oracle::ReferenceFlowTable reference(kHost, config);
  for (const PacketRecord& p : trace) {
    table.process(p);
    reference.process(p);
  }
  // Step time forward in jumps so every flow idles out via advance_to.
  util::Timestamp now = trace.back().timestamp;
  for (int step = 0; step < 20; ++step) {
    now += 45 * util::kMicrosPerSecond;
    table.advance_to(now);
    reference.advance_to(now);
    ASSERT_EQ(table.drain_events(), reference.drain_events()) << "step " << step;
  }
  EXPECT_EQ(table.stats(), reference.stats());
  EXPECT_EQ(table.active_flows(), reference.active_flows());
}

}  // namespace
}  // namespace monohids::net
