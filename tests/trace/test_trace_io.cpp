#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"

namespace monohids::trace {
namespace {

using net::Ipv4Address;
using net::PacketRecord;
using net::Protocol;
using net::TcpFlags;

std::vector<PacketRecord> sample_packets() {
  const net::FiveTuple t{Ipv4Address::parse("10.0.0.1"), Ipv4Address::parse("93.1.2.3"),
                         50000, 443, Protocol::Tcp};
  return {
      {0, t, TcpFlags::Syn, 0},
      {1000, t.reversed(), TcpFlags::Syn | TcpFlags::Ack, 0},
      {2000, t, TcpFlags::Ack | TcpFlags::Psh, 1400},
      {3000, {t.src_ip, Ipv4Address::parse("10.10.255.2"), 50001, 53, Protocol::Udp},
       TcpFlags::None, 64},
  };
}

TEST(TraceIo, BinaryRoundTrip) {
  const auto original = sample_packets();
  std::stringstream buffer;
  write_packet_trace(buffer, original);
  const auto restored = read_packet_trace(buffer);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i], original[i]) << "packet " << i;
  }
}

TEST(TraceIo, BinaryRoundTripOfGeneratedTraffic) {
  GeneratorConfig config;
  config.weeks = 1;
  const TraceGenerator gen(config);
  PopulationConfig pop;
  pop.user_count = 3;
  const auto users = generate_population(pop);
  const auto original = gen.generate_packets(users[0], 0, util::kMicrosPerDay / 4);

  std::stringstream buffer;
  write_packet_trace(buffer, original);
  const auto restored = read_packet_trace(buffer);
  EXPECT_EQ(restored, original);
}

TEST(TraceIo, RejectsWrongMagic) {
  std::stringstream buffer("not a trace file at all");
  EXPECT_THROW((void)read_packet_trace(buffer), InputError);
}

TEST(TraceIo, RejectsTruncatedFile) {
  const auto original = sample_packets();
  std::stringstream buffer;
  write_packet_trace(buffer, original);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW((void)read_packet_trace(truncated), InputError);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  write_packet_trace(buffer, {});
  EXPECT_TRUE(read_packet_trace(buffer).empty());
}

TEST(TraceIo, PacketCsvHasHeaderAndRows) {
  std::ostringstream os;
  write_packet_csv(os, sample_packets());
  const std::string text = os.str();
  EXPECT_NE(text.find("timestamp_us,src,dst"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.1"), std::string::npos);
  EXPECT_NE(text.find("udp"), std::string::npos);
}

TEST(TraceIo, FeatureCsvRoundTrip) {
  features::FeatureMatrix m;
  const auto grid = util::BinGrid::minutes(15);
  for (auto& s : m.series) s = features::BinnedSeries(grid, util::kMicrosPerWeek);
  m.of(features::FeatureKind::TcpConnections).set(0, 42.0);
  m.of(features::FeatureKind::UdpConnections).set(671, 7.5);

  std::stringstream buffer;
  write_feature_csv(buffer, m);
  const auto restored = read_feature_csv(buffer, grid);
  EXPECT_DOUBLE_EQ(restored.of(features::FeatureKind::TcpConnections).at(0), 42.0);
  EXPECT_DOUBLE_EQ(restored.of(features::FeatureKind::UdpConnections).at(671), 7.5);
  EXPECT_EQ(restored.of(features::FeatureKind::TcpSyn).bin_count(), 672u);
}

TEST(TraceIo, PacketCsvRoundTrip) {
  const auto original = sample_packets();
  std::stringstream buffer;
  write_packet_csv(buffer, original);
  const auto restored = read_packet_csv(buffer);
  EXPECT_EQ(restored, original);
}

TEST(TraceIo, PacketCsvImportsExternalTraces) {
  // The documented import path: hand-written CSV (e.g. converted from a
  // pcap) flows straight into PacketRecords.
  std::stringstream csv(
      "timestamp_us,src,dst,sport,dport,proto,flags,payload\n"
      "1000,192.168.1.5,8.8.8.8,51000,53,udp,0,64\n"
      "2000,192.168.1.5,93.184.216.34,51001,443,tcp,2,0\n");
  const auto packets = read_packet_csv(csv);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].tuple.dst_port, 53);
  EXPECT_EQ(packets[0].tuple.protocol, Protocol::Udp);
  EXPECT_EQ(packets[1].tuple.protocol, Protocol::Tcp);
  EXPECT_TRUE(has_flag(packets[1].tcp_flags, TcpFlags::Syn));
}

TEST(TraceIo, CrlfCsvFilesParse) {
  // Files written on Windows end every line in "\r\n"; both CSV readers
  // take them as the plain-LF bytes.
  const auto crlf = [](const std::string& text) {
    std::string out;
    for (char c : text) {
      if (c == '\n') out.push_back('\r');
      out.push_back(c);
    }
    return out;
  };
  std::ostringstream packets_lf;
  write_packet_csv(packets_lf, sample_packets());
  std::istringstream packets_in(crlf(packets_lf.str()));
  EXPECT_EQ(read_packet_csv(packets_in), sample_packets());

  features::FeatureMatrix m;
  const auto grid = util::BinGrid::minutes(15);
  for (auto& s : m.series) s = features::BinnedSeries(grid, util::kMicrosPerWeek);
  m.of(features::FeatureKind::DnsConnections).set(3, 11.0);
  std::ostringstream features_lf;
  write_feature_csv(features_lf, m);
  std::istringstream features_in(crlf(features_lf.str()));
  const auto restored = read_feature_csv(features_in, grid);
  EXPECT_EQ(restored.of(features::FeatureKind::DnsConnections).at(3), 11.0);
  EXPECT_EQ(restored.of(features::FeatureKind::DnsConnections).bin_count(), 672u);
}

TEST(TraceIo, PacketCsvRejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::stringstream in(text);
    return read_packet_csv(in);
  };
  EXPECT_THROW((void)parse(""), InputError);
  EXPECT_THROW((void)parse("wrong,header\n"), InputError);
  EXPECT_THROW((void)parse("timestamp_us,src,dst,sport,dport,proto,flags,payload\n"
                           "x,1.2.3.4,5.6.7.8,1,2,tcp,0,0\n"),
               InputError);
  EXPECT_THROW((void)parse("timestamp_us,src,dst,sport,dport,proto,flags,payload\n"
                           "1,1.2.3.4,5.6.7.8,1,2,sctp,0,0\n"),
               InputError);
  EXPECT_THROW((void)parse("timestamp_us,src,dst,sport,dport,proto,flags,payload\n"
                           "1,1.2.3.4,5.6.7.8,1,2,tcp,999,0\n"),
               InputError);
}

TEST(TraceIo, FeatureCsvRejectsWrongShape) {
  std::stringstream buffer("bin_start_us,only-one-feature\n0,1\n");
  EXPECT_THROW((void)read_feature_csv(buffer, util::BinGrid::minutes(15)), InputError);
}

}  // namespace
}  // namespace monohids::trace
