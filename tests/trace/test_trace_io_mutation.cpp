// Hostile-input suite for the binary packet-trace readers, which read
// archived traces from disk. Valid images come from write_packet_trace over
// a few packet sets (empty, one packet, mixed protocols, a longer seeded
// trace); each is then mutated by seeded bit flips, truncation at every
// offset, header record-count skew, every value of every record's protocol
// byte, version overwrites and trailing bytes. The oracle is an independent
// parser of the image format written here. For every mutant the readers
// and the oracle must agree: read_packet_trace and stream_packet_trace
// throw InputError exactly when the oracle rejects the image, and
// otherwise return exactly the oracle's records.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::trace {
namespace {

using net::PacketRecord;

// Image layout (little-endian): magic "MHTRACE\0", version u32, record
// count u64, then per record timestamp u64, src u32, dst u32,
// (sport << 16 | dport) u32 and (protocol << 24 | flags << 16 | payload)
// u32. The protocol is the record's last byte.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kCountAt = 12;
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kRecordBytes = 24;
constexpr std::size_t kProtocolInRecord = 23;

std::uint64_t load_le(const std::string& image, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(image[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

void store_le(std::string& image, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    image[at + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// The oracle: the records `image` holds, or nullopt when it is not a
/// well-formed trace. Bytes past the last counted record are not read, so
/// they do not count.
std::optional<std::vector<PacketRecord>> parse_image(const std::string& image) {
  if (image.size() < kHeaderBytes) return std::nullopt;
  if (image.compare(0, 8, std::string("MHTRACE\0", 8)) != 0) return std::nullopt;
  if (load_le(image, kVersionAt, 4) != 1) return std::nullopt;
  const std::uint64_t count = load_le(image, kCountAt, 8);
  if (count > (image.size() - kHeaderBytes) / kRecordBytes) return std::nullopt;
  std::vector<PacketRecord> records;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::size_t at = kHeaderBytes + k * kRecordBytes;
    const auto protocol = static_cast<std::uint8_t>(image[at + kProtocolInRecord]);
    if (protocol != 1 && protocol != 6 && protocol != 17) return std::nullopt;
    PacketRecord p;
    p.timestamp = load_le(image, at, 8);
    p.tuple.src_ip = net::Ipv4Address(static_cast<std::uint32_t>(load_le(image, at + 8, 4)));
    p.tuple.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(load_le(image, at + 12, 4)));
    p.tuple.src_port = static_cast<std::uint16_t>(load_le(image, at + 18, 2));
    p.tuple.dst_port = static_cast<std::uint16_t>(load_le(image, at + 16, 2));
    p.payload_bytes = static_cast<std::uint16_t>(load_le(image, at + 20, 2));
    p.tcp_flags = static_cast<net::TcpFlags>(static_cast<std::uint8_t>(image[at + 22]));
    p.tuple.protocol = static_cast<net::Protocol>(protocol);
    records.push_back(p);
  }
  return records;
}

class CollectingSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const PacketRecord> batch) override {
    packets.insert(packets.end(), batch.begin(), batch.end());
  }
  std::vector<PacketRecord> packets;
};

/// Runs both readers on `image`; each must throw InputError exactly when
/// the oracle rejects it and otherwise return the oracle's records (any
/// other exception fails the test).
void expect_agreement(const std::string& image, const std::string& what) {
  const auto expected = parse_image(image);
  {
    std::istringstream in(image);
    try {
      const std::vector<PacketRecord> got = read_packet_trace(in);
      ASSERT_TRUE(expected.has_value())
          << what << ": read_packet_trace accepted an image the oracle rejects";
      ASSERT_EQ(got, *expected) << what << ": read_packet_trace";
    } catch (const InputError&) {
      ASSERT_FALSE(expected.has_value())
          << what << ": read_packet_trace rejected an image the oracle accepts";
    }
  }
  {
    std::istringstream in(image);
    CollectingSink sink;
    try {
      // A small batch size so longer images cross several batches.
      const std::uint64_t count = stream_packet_trace(in, sink, 7);
      ASSERT_TRUE(expected.has_value())
          << what << ": stream_packet_trace accepted an image the oracle rejects";
      ASSERT_EQ(sink.packets, *expected) << what << ": stream_packet_trace";
      ASSERT_EQ(count, expected->size()) << what << ": stream_packet_trace count";
    } catch (const InputError&) {
      ASSERT_FALSE(expected.has_value())
          << what << ": stream_packet_trace rejected an image the oracle accepts";
    }
  }
}

std::string image_of(const std::vector<PacketRecord>& packets) {
  std::ostringstream out;
  write_packet_trace(out, packets);
  return out.str();
}

/// Seeded packets covering every protocol, flag byte, and full-range
/// ports, payloads, addresses and timestamps.
std::vector<PacketRecord> seeded_packets(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  constexpr net::Protocol kProtocols[] = {net::Protocol::Tcp, net::Protocol::Udp,
                                          net::Protocol::Icmp};
  std::vector<PacketRecord> packets(n);
  std::uint64_t t = rng() % 1000;
  for (PacketRecord& p : packets) {
    t += rng() % 100000;
    p.timestamp = seed % 2 == 0 ? t : rng();
    p.tuple.src_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    p.tuple.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    p.tuple.src_port = static_cast<std::uint16_t>(rng());
    p.tuple.dst_port = static_cast<std::uint16_t>(rng());
    p.tuple.protocol = kProtocols[rng() % 3];
    p.tcp_flags = static_cast<net::TcpFlags>(static_cast<std::uint8_t>(rng()));
    p.payload_bytes = static_cast<std::uint16_t>(rng());
  }
  return packets;
}

std::vector<std::string> source_images() {
  return {image_of({}), image_of(seeded_packets(1, 1)), image_of(seeded_packets(2, 8)),
          image_of(seeded_packets(3, 40))};
}

TEST(TraceIoMutation, SourceImagesRoundTrip) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{40}}) {
      const auto packets = seeded_packets(seed, n);
      const std::string image = image_of(packets);
      ASSERT_EQ(image.size(), kHeaderBytes + n * kRecordBytes);
      const auto parsed = parse_image(image);
      ASSERT_TRUE(parsed.has_value());
      ASSERT_EQ(*parsed, packets);
      expect_agreement(image, "source");
    }
  }
}

TEST(TraceIoMutation, SeededMutantsThrowOrMatchTheOracle) {
  const auto images = source_images();
  for (std::size_t source = 0; source < images.size(); ++source) {
    const std::string& image = images[source];
    const std::uint64_t count = load_le(image, kCountAt, 8);
    util::Xoshiro256 rng(util::derive_seed(2009, "trace-io-mutation", source));
    const std::string label = "source " + std::to_string(source);

    // Bit flips: one to three random bits anywhere in the image.
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutant = image;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng() % (mutant.size() * 8);
        mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      }
      expect_agreement(mutant, label + " bit flips");
    }

    // Truncation at every offset.
    for (std::size_t size = 0; size < image.size(); ++size) {
      expect_agreement(image.substr(0, size), label + " truncated to " + std::to_string(size));
    }

    // Header record count: off by one and by k either way, zero, and huge
    // values a trusting reader would try to allocate for.
    for (std::uint64_t v :
         {count - 1, count + 1, count - 2, count + 2, count - 7, count + 7, count + 1000,
          std::uint64_t{0}, std::uint64_t{1} << 32, std::uint64_t{1} << 62,
          std::numeric_limits<std::uint64_t>::max()}) {
      std::string mutant = image;
      store_le(mutant, kCountAt, v, 8);
      expect_agreement(mutant, label + " count " + std::to_string(v));
    }

    // Every value of every record's protocol byte.
    for (std::uint64_t k = 0; k < count; ++k) {
      for (int protocol = 0; protocol < 256; ++protocol) {
        std::string mutant = image;
        mutant[kHeaderBytes + k * kRecordBytes + kProtocolInRecord] =
            static_cast<char>(protocol);
        expect_agreement(mutant, label + " record " + std::to_string(k) + " protocol " +
                                     std::to_string(protocol));
      }
    }

    // Version overwrites.
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{0x01000000},
                            std::uint64_t{0xFFFFFFFF}}) {
      std::string mutant = image;
      store_le(mutant, kVersionAt, v, 4);
      expect_agreement(mutant, label + " version " + std::to_string(v));
    }

    // Trailing bytes past the last record are not part of the trace.
    for (std::size_t extra : {std::size_t{1}, std::size_t{23}, std::size_t{24},
                              std::size_t{25}}) {
      std::string mutant = image;
      for (std::size_t i = 0; i < extra; ++i) mutant.push_back(static_cast<char>(rng()));
      expect_agreement(mutant, label + " trailing " + std::to_string(extra));
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace monohids::trace
