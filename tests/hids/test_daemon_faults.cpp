// Fault injection against the live daemon: truncated captures mid-packet,
// corrupt record headers, and out-of-order timestamps must surface as
// diagnosed errors or documented skip counts — never a crash, a hang, or a
// silently wrong feature matrix. Extends the trace-reader error-path suite
// (tests/trace/test_io_errors.cpp) through the daemon's recovery path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "hids/daemon.hpp"
#include "stats/sampling.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

const trace::UserProfile& fixture_user() {
  static const auto users = [] {
    trace::PopulationConfig pop;
    pop.user_count = 10;
    pop.seed = 777;
    return trace::generate_population(pop);
  }();
  return users[1];
}

/// One quiet day of traffic: small enough for byte surgery, real enough to
/// produce flows through every feature.
const std::vector<net::PacketRecord>& day_packets() {
  static const auto packets = [] {
    const trace::TraceGenerator generator{trace::GeneratorConfig{}};
    return generator.generate_packets(fixture_user(), 0, util::kMicrosPerDay);
  }();
  return packets;
}

DaemonConfig fixture_config() {
  DaemonConfig config;
  config.monitored = fixture_user().address;
  config.user_id = fixture_user().user_id;
  config.pipeline.horizon = util::kMicrosPerWeek;
  config.deliver_inline = true;
  return config;
}

std::string pcap_of(const std::vector<net::PacketRecord>& packets) {
  std::ostringstream out;
  trace::write_pcap(out, packets);
  return out.str();
}

std::uint32_t u32_le_at(const std::string& bytes, std::size_t offset) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset + 1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset + 2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset + 3])) << 24);
}

/// Byte offset of record `n` (0-based) in a classic pcap byte string.
std::size_t record_offset(const std::string& bytes, std::size_t n) {
  std::size_t at = 24;
  for (std::size_t i = 0; i < n; ++i) at += 16 + u32_le_at(bytes, at + 8);
  return at;
}

TEST(DaemonFaults, TruncatedCaptureMidPacketSalvagesEveryIntactPacket) {
  const std::string bytes = pcap_of(day_packets());
  // Cut inside the body of the record two-thirds in.
  const std::size_t cut_record = (day_packets().size() * 2) / 3;
  const std::size_t cut = record_offset(bytes, cut_record) + 16 + 5;
  ASSERT_LT(cut, bytes.size());

  Daemon daemon(fixture_config());
  std::istringstream in(bytes.substr(0, cut));
  const trace::PcapReadResult imported = daemon.consume_pcap(in);
  EXPECT_EQ(imported.packet_count, cut_record);
  EXPECT_NE(imported.stream_error.find("truncated pcap record"), std::string::npos)
      << "actual: " << imported.stream_error;

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.input_errors, 1u);
  EXPECT_EQ(stats.last_input_error, imported.stream_error);

  // The salvaged run must equal a clean run over the intact prefix — a
  // fault truncates coverage, it never corrupts what was already parsed.
  const DaemonResult salvaged = daemon.finish();
  Daemon reference_daemon(fixture_config());
  reference_daemon.on_batch(std::span<const net::PacketRecord>(day_packets().data(),
                                                               cut_record));
  const DaemonResult reference = reference_daemon.finish();
  EXPECT_EQ(salvaged.stats.packets_ingested, reference.stats.packets_ingested);
  for (features::FeatureKind f : features::kAllFeatures) {
    const auto a = salvaged.pipeline.matrix.of(f).values();
    const auto b = reference.pipeline.matrix.of(f).values();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << features::name_of(f) << " bin " << i;
    }
  }
}

TEST(DaemonFaults, CorruptRecordHeaderIsDiagnosedNotTrusted) {
  std::string bytes = pcap_of(day_packets());
  // Claim a 256 MiB record a few packets in: the daemon must stop with a
  // diagnostic instead of allocating off the hostile length field.
  const std::size_t at = record_offset(bytes, 5) + 8;
  bytes[at + 0] = 0x00;
  bytes[at + 1] = 0x00;
  bytes[at + 2] = 0x00;
  bytes[at + 3] = 0x10;

  Daemon daemon(fixture_config());
  std::istringstream in(bytes);
  const trace::PcapReadResult imported = daemon.consume_pcap(in);
  EXPECT_EQ(imported.packet_count, 5u);
  EXPECT_NE(imported.stream_error.find("implausible pcap record length"),
            std::string::npos)
      << "actual: " << imported.stream_error;
  EXPECT_EQ(daemon.stats().input_errors, 1u);
  const DaemonResult result = daemon.finish();
  EXPECT_EQ(result.stats.packets_ingested, 5u);
}

TEST(DaemonFaults, MalformedGlobalHeaderStillThrows) {
  std::string bytes = pcap_of(day_packets());
  bytes[0] = 0x00;  // break the magic: nothing recoverable was captured
  Daemon daemon(fixture_config());
  std::istringstream in(bytes);
  EXPECT_THROW((void)daemon.consume_pcap(in), InputError);
  EXPECT_EQ(daemon.stats().input_errors, 0u);
  const DaemonResult result = daemon.finish();
  EXPECT_EQ(result.stats.packets_ingested, 0u);
}

TEST(DaemonFaults, FaultCountsAccumulateAcrossCaptures) {
  const std::string bytes = pcap_of(day_packets());
  Daemon daemon(fixture_config());
  for (int i = 0; i < 2; ++i) {
    std::istringstream in(bytes.substr(0, bytes.size() - 3));
    (void)daemon.consume_pcap(in);
  }
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.input_errors, 2u);
  EXPECT_FALSE(stats.last_input_error.empty());
  (void)daemon.finish();
}

TEST(DaemonFaults, OutOfOrderTimestampsAreSkippedAndCounted) {
  // Replay a slice, then splice three stale packets (rewound timestamps)
  // into the stream: the daemon must skip exactly those, count them, and
  // produce the same matrix as the clean sequence.
  std::vector<net::PacketRecord> clean(day_packets().begin(),
                                       day_packets().begin() + 2000);
  std::vector<net::PacketRecord> disordered = clean;
  net::PacketRecord stale = clean[100];
  stale.timestamp = clean[500].timestamp / 2;
  disordered.insert(disordered.begin() + 1500, 3, stale);

  DaemonConfig config = fixture_config();
  Daemon daemon(config);
  daemon.on_batch(disordered);
  const DaemonResult result = daemon.finish();
  EXPECT_EQ(result.stats.packets_out_of_order, 3u);
  EXPECT_EQ(result.stats.packets_ingested, clean.size());

  Daemon reference_daemon(config);
  reference_daemon.on_batch(clean);
  const DaemonResult reference = reference_daemon.finish();
  for (features::FeatureKind f : features::kAllFeatures) {
    const auto a = result.pipeline.matrix.of(f).values();
    const auto b = reference.pipeline.matrix.of(f).values();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << features::name_of(f) << " bin " << i;
    }
  }
}

TEST(DaemonFaults, RegressionAcrossBatchBoundariesIsAlsoCaught) {
  const auto& packets = day_packets();
  ASSERT_GT(packets.size(), 3000u);
  const std::span<const net::PacketRecord> all(packets.data(), 3000);
  Daemon daemon(fixture_config());
  daemon.on_batch(all.subspan(1000, 2000));  // later slice first
  daemon.on_batch(all.subspan(0, 1000));     // whole earlier slice regresses
  const DaemonResult result = daemon.finish();
  EXPECT_EQ(result.stats.packets_ingested + result.stats.packets_out_of_order, 3000u);
  EXPECT_GE(result.stats.packets_out_of_order, 1000u - 1);
}

/// The order filter packet by packet: a packet is skipped when its
/// timestamp is strictly below the last accepted one.
struct FilteredSequence {
  std::vector<net::PacketRecord> accepted;
  std::uint64_t regressed = 0;
};

FilteredSequence reference_order_filter(std::span<const net::PacketRecord> offered) {
  FilteredSequence out;
  for (const net::PacketRecord& packet : offered) {
    if (!out.accepted.empty() && packet.timestamp < out.accepted.back().timestamp) {
      ++out.regressed;
    } else {
      out.accepted.push_back(packet);
    }
  }
  return out;
}

TEST(DaemonFaults, OrderFilterMatchesAPerPacketReference) {
  // Two days of traffic with stale packets spliced in: singly and in runs,
  // at random and at the first and last index of 137- and 4096-packet
  // batches, plus repeats of the last timestamp, which are not regressions.
  // The last packet offered is stale too.
  const trace::TraceGenerator generator{trace::GeneratorConfig{}};
  const std::vector<net::PacketRecord> clean =
      generator.generate_packets(fixture_user(), 0, 2 * util::kMicrosPerDay);
  constexpr std::array<std::size_t, 7> kForced{136, 137, 273, 274, 4095, 4096, 8191};
  util::Xoshiro256 rng(2113);
  std::vector<net::PacketRecord> offered;
  util::Timestamp high = 0;
  const auto push_stale = [&] {
    net::PacketRecord p = clean[stats::sample_uniform_int(rng, 0, clean.size() - 1)];
    p.timestamp = stats::sample_uniform_int(rng, 0, high - 1);
    offered.push_back(p);
  };
  for (std::size_t next = 0; next < clean.size();) {
    const std::size_t at = offered.size();
    const bool forced = std::find(kForced.begin(), kForced.end(), at) != kForced.end();
    const std::uint64_t roll = stats::sample_uniform_int(rng, 0, 99);
    if (high > 0 && (forced || roll < 3)) {
      const std::uint64_t run = forced ? 1 : stats::sample_uniform_int(rng, 1, 4);
      for (std::uint64_t r = 0; r < run; ++r) push_stale();
    } else if (next > 0 && roll < 5) {
      offered.push_back(clean[next - 1]);  // the last accepted timestamp again
    } else {
      offered.push_back(clean[next++]);
      high = std::max(high, offered.back().timestamp);
    }
  }
  push_stale();
  ASSERT_GT(offered.size(), 2 * 4096u);

  const FilteredSequence expected = reference_order_filter(offered);
  ASSERT_GT(expected.regressed, 100u);
  const DaemonConfig config = fixture_config();
  Daemon reference_daemon(config);
  reference_daemon.on_batch(expected.accepted);
  const DaemonResult reference = reference_daemon.finish();
  ASSERT_EQ(reference.stats.packets_out_of_order, 0u);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{137}, std::size_t{4096},
                                  offered.size()}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    Daemon daemon(config);
    for (std::size_t off = 0; off < offered.size(); off += batch) {
      daemon.on_batch(std::span<const net::PacketRecord>(offered).subspan(
          off, std::min(batch, offered.size() - off)));
    }
    const DaemonResult result = daemon.finish();
    EXPECT_EQ(result.stats.packets_ingested, expected.accepted.size());
    EXPECT_EQ(result.stats.packets_out_of_order, expected.regressed);
    EXPECT_EQ(result.stats.packets_ingested + result.stats.packets_out_of_order,
              offered.size());
    for (features::FeatureKind f : features::kAllFeatures) {
      const auto a = result.pipeline.matrix.of(f).values();
      const auto b = reference.pipeline.matrix.of(f).values();
      ASSERT_EQ(a.size(), b.size()) << features::name_of(f);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << features::name_of(f) << " bin " << i;
      }
    }
  }
}

}  // namespace
}  // namespace monohids::hids
