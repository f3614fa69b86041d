// Consistency contract: emit_session_packets(), run through the real flow
// table and extractor, must reproduce the SessionFootprint it was given —
// the increments the feature renderer counts for that session. This is
// what licenses the bin-level path. The footprints are an enumerated grid
// over the range of every count the scenario contract can hand a session
// (single and capped-out Pareto values, zero/partial/full HTTPS and
// SYN-retransmission subsets, cached and uncached lookups), rendered on the
// packet-channel engine (detail::V2PacketDraws).
#include "trace/apps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "features/pipeline.hpp"
#include "trace/v2_contract.hpp"

namespace monohids::trace {
namespace {

using features::FeatureKind;

const net::Ipv4Address kHost = net::Ipv4Address::parse("10.10.0.1");

DestinationPools small_pools() {
  DestinationPools pools;
  pools.dns_server = net::Ipv4Address::parse("10.10.255.2");
  pools.mail_server = net::Ipv4Address::parse("10.10.255.3");
  for (int i = 0; i < 64; ++i) {
    pools.web_servers.push_back(net::Ipv4Address(0x5D000000u + i));  // 93.0.0.x
    pools.peer_pool.push_back(net::Ipv4Address(0x4E000000u + i));    // 78.0.0.x
  }
  return pools;
}

struct ExtractedCounts {
  double tcp = 0, udp = 0, dns = 0, http = 0, syn = 0;
};

/// Renders one session as packets and extracts total feature counts.
ExtractedCounts render_and_extract(AppKind kind, const SessionFootprint& footprint,
                                   detail::V2PacketDraws& draws) {
  std::vector<net::PacketRecord> packets;
  emit_session_packets(kind, footprint, 1000, kHost, small_pools(), draws, packets);
  std::sort(packets.begin(), packets.end());

  features::PipelineConfig config;
  config.horizon = util::kMicrosPerWeek;
  const auto result = features::extract_features(kHost, packets, config);

  ExtractedCounts counts;
  const auto total = [&](FeatureKind f) {
    double acc = 0;
    const auto& s = result.matrix.of(f);
    for (std::size_t b = 0; b < s.bin_count(); ++b) acc += s.at(b);
    return acc;
  };
  counts.tcp = total(FeatureKind::TcpConnections);
  counts.udp = total(FeatureKind::UdpConnections);
  counts.dns = total(FeatureKind::DnsConnections);
  counts.http = total(FeatureKind::HttpConnections);
  counts.syn = total(FeatureKind::TcpSyn);
  return counts;
}

/// Packet channel of bin `bin` under a fixed test key (15-minute bins).
detail::V2PacketDraws packet_draws(std::uint64_t bin) {
  return detail::V2PacketDraws(0x5eed, bin, 15 * util::kMicrosPerMinute);
}

/// Footprints of one session of `kind` as the scenario contract builds them
/// (trace/v2_packets.cpp), over the edges of each count's range.
std::vector<SessionFootprint> footprint_grid(AppKind kind) {
  std::vector<SessionFootprint> grid;
  switch (kind) {
    case AppKind::Web:
      // objects (Pareto, cap 40); HTTPS and SYN-retransmission subsets of
      // the objects; lookups after the resolver cache.
      for (const std::uint32_t objects : {1u, 2u, 3u, 12u, 40u}) {
        for (const std::uint32_t https : {0u, objects / 2, objects}) {
          for (const std::uint32_t retrans : {0u, 1u, objects}) {
            for (const std::uint32_t lookups : {0u, 1u, 4u}) {
              grid.push_back({.tcp_connections = objects,
                              .udp_connections = lookups,
                              .dns_connections = lookups,
                              .http_connections = objects - https,
                              .syn_packets = objects + retrans});
            }
          }
        }
      }
      break;
    case AppKind::Dns:
      for (const std::uint32_t lookups : {1u, 2u, 7u}) {
        grid.push_back({.udp_connections = lookups, .dns_connections = lookups});
      }
      break;
    case AppKind::Mail:
    case AppKind::Interactive:
      for (const std::uint32_t lookups : {0u, 1u}) {
        grid.push_back({.tcp_connections = 1,
                        .udp_connections = lookups,
                        .dns_connections = lookups,
                        .syn_packets = 1});
      }
      break;
    case AppKind::P2p:
      for (const std::uint32_t peers : {1u, 2u, 9u, 600u}) {
        grid.push_back({.udp_connections = peers});
      }
      break;
    case AppKind::Update:
      // 4 + Pareto fetches (cap 100); retransmissions split by fetch count.
      for (const std::uint32_t fetches : {4u, 5u, 104u}) {
        for (const std::uint32_t retrans : {0u, 1u, 9u}) {
          for (const std::uint32_t lookups : {0u, 1u}) {
            grid.push_back({.tcp_connections = fetches,
                            .udp_connections = lookups,
                            .dns_connections = lookups,
                            .syn_packets = fetches + retrans});
          }
        }
      }
      break;
  }
  return grid;
}

class AppConsistency : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppConsistency, PacketsReproduceFootprint) {
  const AppKind kind = GetParam();
  const std::vector<SessionFootprint> grid = footprint_grid(kind);
  ASSERT_FALSE(grid.empty());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SessionFootprint& f = grid[i];
    detail::V2PacketDraws draws = packet_draws(i);
    const ExtractedCounts c = render_and_extract(kind, f, draws);
    EXPECT_DOUBLE_EQ(c.tcp, f.tcp_connections) << name_of(kind) << " footprint " << i;
    EXPECT_DOUBLE_EQ(c.udp, f.udp_connections) << name_of(kind) << " footprint " << i;
    EXPECT_DOUBLE_EQ(c.dns, f.dns_connections) << name_of(kind) << " footprint " << i;
    EXPECT_DOUBLE_EQ(c.http, f.http_connections) << name_of(kind) << " footprint " << i;
    EXPECT_DOUBLE_EQ(c.syn, f.syn_packets) << name_of(kind) << " footprint " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppConsistency, ::testing::ValuesIn(kAllApps),
                         [](const ::testing::TestParamInfo<AppKind>& info) {
                           return std::string(name_of(info.param));
                         });

TEST(AppPackets, UpdateUsesAtMostTwoServers) {
  const std::vector<SessionFootprint> grid = footprint_grid(AppKind::Update);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    detail::V2PacketDraws draws = packet_draws(i);
    std::vector<net::PacketRecord> packets;
    emit_session_packets(AppKind::Update, grid[i], 0, kHost, small_pools(), draws, packets);
    std::unordered_set<net::Ipv4Address> dsts;
    for (const auto& p : packets) {
      if (p.tuple.src_ip == kHost && p.tuple.protocol == net::Protocol::Tcp) {
        dsts.insert(p.tuple.dst_ip);
      }
    }
    EXPECT_LE(dsts.size(), 2u) << "footprint " << i;
  }
}

TEST(AppNames, AreStable) {
  EXPECT_EQ(name_of(AppKind::Web), "web");
  EXPECT_EQ(name_of(AppKind::P2p), "p2p");
  EXPECT_EQ(kAppCount, 6u);
}

}  // namespace
}  // namespace monohids::trace
