// Error paths of every trace reader: truncated or corrupt binary traces,
// packet/feature CSVs and pcap captures must fail with an InputError whose
// message names the problem — never crash, never allocate absurdly off an
// untrusted header field, and never silently return a truncated trace.
// Writers produce the well-formed bytes; each test then damages them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/pcap.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"

namespace monohids::trace {
namespace {

/// Minimal sink for the streaming readers: counts what arrives.
class CountingSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const net::PacketRecord> batch) override {
    packets += batch.size();
  }
  std::uint64_t packets = 0;
};

std::vector<net::PacketRecord> sample_packets() {
  std::vector<net::PacketRecord> packets;
  for (std::uint64_t i = 0; i < 8; ++i) {
    net::PacketRecord p;
    p.timestamp = i * 1000;
    p.tuple.src_ip = net::Ipv4Address(0x0A000001);
    p.tuple.dst_ip = net::Ipv4Address(0x0A000002 + static_cast<std::uint32_t>(i));
    p.tuple.src_port = static_cast<std::uint16_t>(40000 + i);
    p.tuple.dst_port = 80;
    p.tuple.protocol = net::Protocol::Tcp;
    p.tcp_flags = net::TcpFlags::Syn;
    p.payload_bytes = 100;
    packets.push_back(p);
  }
  return packets;
}

std::string binary_trace_bytes() {
  std::ostringstream out;
  write_packet_trace(out, sample_packets());
  return out.str();
}

/// Asserts that both reader forms reject `bytes` with an InputError whose
/// message contains `diagnostic`.
void expect_binary_readers_reject(const std::string& bytes, const std::string& diagnostic) {
  {
    std::istringstream in(bytes);
    try {
      (void)read_packet_trace(in);
      FAIL() << "read_packet_trace accepted corrupt input";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos)
          << "actual message: " << e.what();
    }
  }
  {
    std::istringstream in(bytes);
    CountingSink sink;
    EXPECT_THROW((void)stream_packet_trace(in, sink), InputError);
  }
}

TEST(TraceIoErrors, BinaryBadMagicIsRejected) {
  std::string bytes = binary_trace_bytes();
  bytes[0] = 'X';
  expect_binary_readers_reject(bytes, "not a monohids trace file");
}

TEST(TraceIoErrors, BinaryUnsupportedVersionIsRejected) {
  std::string bytes = binary_trace_bytes();
  bytes[8] = 99;  // version field follows the 8-byte magic, little-endian
  expect_binary_readers_reject(bytes, "unsupported trace version");
}

TEST(TraceIoErrors, BinaryTruncatedHeaderIsRejected) {
  const std::string bytes = binary_trace_bytes();
  for (std::size_t keep : {0u, 4u, 9u, 15u}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    std::istringstream in(bytes.substr(0, keep));
    EXPECT_THROW((void)read_packet_trace(in), InputError);
  }
}

TEST(TraceIoErrors, BinaryTruncatedRecordsAreRejectedNotSilentlyShortened) {
  const std::string bytes = binary_trace_bytes();
  // Cut mid-record and at a record boundary: the header still promises 8
  // records, so both cuts must throw rather than return fewer.
  expect_binary_readers_reject(bytes.substr(0, bytes.size() - 3), "truncated trace file");
  expect_binary_readers_reject(bytes.substr(0, bytes.size() - 24), "truncated trace file");
}

TEST(TraceIoErrors, BinaryCorruptGiantCountFailsFastWithoutAllocating) {
  std::string bytes = binary_trace_bytes();
  // Overwrite the count (8 bytes at offset 12) with 2^60: the reader must
  // not trust it with a reserve() — it fails at the first missing record.
  for (std::size_t i = 0; i < 8; ++i) bytes[12 + i] = 0;
  bytes[12 + 7] = 0x10;
  expect_binary_readers_reject(bytes, "truncated trace file");
}

TEST(TraceIoErrors, BinaryUnknownProtocolIsRejected) {
  // The protocol byte is the top byte of each record's last word. Only
  // ICMP (1), TCP (6) and UDP (17) exist; any other byte must be rejected,
  // not passed on as a Protocol value no other reader or writer accepts.
  const std::string good = binary_trace_bytes();
  constexpr std::size_t kHeader = 20, kRecord = 24;
  for (const unsigned char protocol : {0x00, 0x02, 0x42, 0xFF}) {
    std::string bytes = good;
    bytes[kHeader + 3 * kRecord + kRecord - 1] = static_cast<char>(protocol);
    expect_binary_readers_reject(bytes, "unknown protocol " + std::to_string(protocol));
  }
  for (const unsigned char protocol : {1, 6, 17}) {
    std::string bytes = good;
    bytes[kHeader + kRecord - 1] = static_cast<char>(protocol);
    std::istringstream in(bytes);
    EXPECT_EQ(static_cast<unsigned>(read_packet_trace(in)[0].tuple.protocol), protocol);
  }
}

std::string packet_csv_bytes() {
  std::ostringstream out;
  write_packet_csv(out, sample_packets());
  return out.str();
}

void expect_csv_readers_reject(const std::string& text) {
  {
    std::istringstream in(text);
    EXPECT_THROW((void)read_packet_csv(in), InputError);
  }
  {
    std::istringstream in(text);
    CountingSink sink;
    EXPECT_THROW((void)stream_packet_csv(in, sink), InputError);
  }
}

TEST(TraceIoErrors, PacketCsvEmptyAndHeaderlessInputsAreRejected) {
  expect_csv_readers_reject("");
  expect_csv_readers_reject("nonsense,header\n1,2\n");
}

TEST(TraceIoErrors, PacketCsvMalformedRowsAreRejected) {
  const std::string good = packet_csv_bytes();
  const std::string header = good.substr(0, good.find('\n') + 1);
  // Wrong field count, garbage timestamp, trailing junk after a number,
  // unknown protocol, out-of-range flags, ports or payload (which a 16-bit
  // cast would silently wrap), signs, blanks and a timestamp past 2^64:
  // each must throw, including from the streaming reader after it already
  // accepted earlier good rows.
  for (const std::string& bad_row :
       {std::string("1,2,3\n"),
        std::string("abc,10.0.0.1,10.0.0.2,1,2,tcp,2,0\n"),
        std::string("17x,10.0.0.1,10.0.0.2,1,2,tcp,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,2,quic,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,2,tcp,999,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,70000,2,tcp,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,65536,tcp,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,2,tcp,2,65536\n"),
        std::string("17,10.0.0.1,10.0.0.2,-1,2,tcp,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,2,tcp,-1,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,2,tcp,2,-1\n"),
        std::string("-17,10.0.0.1,10.0.0.2,1,2,tcp,2,0\n"),
        std::string("+17,10.0.0.1,10.0.0.2,1,2,tcp,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2, 1,2,tcp,2,0\n"),
        std::string("17,10.0.0.1,10.0.0.2,1,2,tcp,2, 0\n"),
        std::string("18446744073709551616,10.0.0.1,10.0.0.2,1,2,tcp,2,0\n")}) {
    SCOPED_TRACE("row: " + bad_row);
    expect_csv_readers_reject(header + bad_row);
    expect_csv_readers_reject(good + bad_row);
  }
}

/// streambuf whose underflow throws once the good prefix is consumed —
/// the stdlib turns that into badbit on the reading istream, which is how a
/// mid-file I/O error (disk fault, dropped NFS mount) actually presents.
class FailingAfterPrefixBuf final : public std::streambuf {
 public:
  explicit FailingAfterPrefixBuf(std::string prefix) : prefix_(std::move(prefix)) {
    setg(prefix_.data(), prefix_.data(), prefix_.data() + prefix_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("simulated I/O fault"); }

 private:
  std::string prefix_;
};

TEST(TraceIoErrors, PacketCsvStreamFaultIsAnErrorNotATruncatedTrace) {
  // Header plus a few complete rows, then the stream dies. The streaming
  // reader must report the fault instead of returning the prefix as if the
  // trace ended there.
  const std::string good = packet_csv_bytes();
  FailingAfterPrefixBuf buf(good);
  std::istream in(&buf);
  CountingSink sink;
  try {
    (void)stream_packet_csv(in, sink);
    FAIL() << "stream_packet_csv silently truncated on a stream fault";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("I/O error"), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(TraceIoErrors, PacketCsvMidFileFaultThrowsFromBothReaders) {
  // The stream dies in the middle of a row, after the header and a few
  // complete rows. Both readers share one row loop, so both must report
  // the fault as an InputError rather than return the rows before it.
  const std::string good = packet_csv_bytes();
  const std::string prefix = good.substr(0, good.size() / 2);
  ASSERT_NE(prefix.back(), '\n');
  const auto expect_io_error = [](const auto& read, const char* reader) {
    try {
      read();
      ADD_FAILURE() << reader << " returned a truncated trace on a stream fault";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find("I/O error"), std::string::npos)
          << reader << " message: " << e.what();
    }
  };
  {
    FailingAfterPrefixBuf buf(prefix);
    std::istream in(&buf);
    expect_io_error([&] { (void)read_packet_csv(in); }, "read_packet_csv");
  }
  {
    FailingAfterPrefixBuf buf(prefix);
    std::istream in(&buf);
    CountingSink sink;
    expect_io_error([&] { (void)stream_packet_csv(in, sink); }, "stream_packet_csv");
  }
}

TEST(TraceIoErrors, FeatureCsvStructuralProblemsAreRejected) {
  const util::BinGrid grid = util::BinGrid::minutes(15);
  for (const std::string& text :
       {std::string(""), std::string("bin_start_us,a\n"),
        std::string("bin_start_us,a,b,c,d,e,f\n"),  // header only, no data
        std::string("bin_start_us,a,b,c,d,e,f\n0,1,2,3\n")}) {
    SCOPED_TRACE("text: " + text);
    std::istringstream in(text);
    EXPECT_THROW((void)read_feature_csv(in, grid), InputError);
  }
}

TEST(TraceIoErrors, FeatureCsvMalformedValuesNameTheCell) {
  const util::BinGrid grid = util::BinGrid::minutes(15);
  for (const std::string& cell : {std::string("abc"), std::string("1.5junk"), std::string("")}) {
    SCOPED_TRACE("cell: \"" + cell + "\"");
    std::istringstream in("bin_start_us,a,b,c,d,e,f\n0,1,2," + cell + ",4,5,6\n");
    try {
      (void)read_feature_csv(in, grid);
      FAIL() << "read_feature_csv accepted malformed cell";
    } catch (const InputError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("row 1"), std::string::npos) << "actual: " << message;
      EXPECT_NE(message.find("column 3"), std::string::npos) << "actual: " << message;
    }
  }
}

std::string pcap_bytes() {
  std::ostringstream out;
  write_pcap(out, sample_packets());
  return out.str();
}

void expect_pcap_readers_reject(const std::string& bytes, const std::string& diagnostic) {
  {
    std::istringstream in(bytes);
    try {
      (void)read_pcap(in);
      FAIL() << "read_pcap accepted corrupt input";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos)
          << "actual message: " << e.what();
    }
  }
  {
    std::istringstream in(bytes);
    CountingSink sink;
    EXPECT_THROW((void)stream_pcap(in, sink), InputError);
  }
}

TEST(TraceIoErrors, PcapEmptyAndBadMagicAreRejected) {
  expect_pcap_readers_reject("", "pcap stream is empty");
  std::string bytes = pcap_bytes();
  bytes[0] = 0x00;
  bytes[1] = 0x01;
  bytes[2] = 0x02;
  bytes[3] = 0x03;
  expect_pcap_readers_reject(bytes, "bad magic");
}

TEST(TraceIoErrors, PcapTruncatedGlobalHeaderIsRejected) {
  // The global header is 24 bytes; anything shorter after a valid magic is
  // a truncation, not an empty capture.
  expect_pcap_readers_reject(pcap_bytes().substr(0, 16), "truncated pcap global header");
}

TEST(TraceIoErrors, PcapTruncatedRecordHeaderAndBodyAreRejected) {
  const std::string bytes = pcap_bytes();
  // Record headers are 16 bytes at offset 24: cut inside the first record
  // header, then inside the first record body.
  expect_pcap_readers_reject(bytes.substr(0, 24 + 7), "truncated pcap record header");
  expect_pcap_readers_reject(bytes.substr(0, 24 + 16 + 10), "truncated pcap record body");
  // And mid-capture: several full records, then a cut body.
  expect_pcap_readers_reject(bytes.substr(0, bytes.size() - 5),
                             "truncated pcap record body");
}

TEST(TraceIoErrors, PcapImplausibleRecordLengthIsRejected) {
  std::string bytes = pcap_bytes();
  // incl_len lives at record offset +8; claim 256 MiB for the first record.
  const std::size_t incl_len_at = 24 + 8;
  bytes[incl_len_at + 0] = 0x00;
  bytes[incl_len_at + 1] = 0x00;
  bytes[incl_len_at + 2] = 0x00;
  bytes[incl_len_at + 3] = 0x10;
  expect_pcap_readers_reject(bytes, "implausible pcap record length");
}

std::uint32_t u32_le_at(const std::string& bytes, std::size_t offset) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset + 1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset + 2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[offset + 3])) << 24);
}

TEST(TraceIoErrors, RecoveringPcapStreamSalvagesThePreFaultPrefix) {
  const std::string bytes = pcap_bytes();
  // Cut mid-body of the final record: the strict readers throw (asserted
  // above); the recovering reader must deliver the 7 intact packets and
  // carry the diagnostic instead.
  std::istringstream in(bytes.substr(0, bytes.size() - 5));
  CountingSink sink;
  const PcapReadResult result = stream_pcap_recovering(in, sink);
  EXPECT_EQ(sink.packets, 7u);
  EXPECT_EQ(result.packet_count, 7u);
  EXPECT_NE(result.stream_error.find("truncated pcap record body"), std::string::npos)
      << "actual: " << result.stream_error;
}

TEST(TraceIoErrors, RecoveringPcapStreamStopsAtACorruptRecordHeader) {
  std::string bytes = pcap_bytes();
  // Corrupt the *second* record's incl_len (first record is 16 bytes of
  // header plus its frame) to claim 256 MiB: packet 1 is salvaged, the
  // fault is diagnosed, and nothing absurd is allocated.
  const std::size_t second_record = 24 + 16 + u32_le_at(bytes, 24 + 8);
  ASSERT_LT(second_record + 16, bytes.size());
  bytes[second_record + 8] = 0x00;
  bytes[second_record + 9] = 0x00;
  bytes[second_record + 10] = 0x00;
  bytes[second_record + 11] = 0x10;
  std::istringstream in(bytes);
  CountingSink sink;
  const PcapReadResult result = stream_pcap_recovering(in, sink);
  EXPECT_EQ(sink.packets, 1u);
  EXPECT_NE(result.stream_error.find("implausible pcap record length"), std::string::npos)
      << "actual: " << result.stream_error;
}

TEST(TraceIoErrors, RecoveringPcapStreamStillThrowsOnMalformedGlobalHeader) {
  // A bad magic or truncated global header means there is nothing to
  // recover: same InputError contract as the strict readers.
  std::string bytes = pcap_bytes();
  bytes[0] = 0x00;
  {
    std::istringstream in(bytes);
    CountingSink sink;
    EXPECT_THROW((void)stream_pcap_recovering(in, sink), InputError);
  }
  {
    std::istringstream in(pcap_bytes().substr(0, 16));
    CountingSink sink;
    EXPECT_THROW((void)stream_pcap_recovering(in, sink), InputError);
  }
}

/// The three global-header encodings the pcap readers accept.
enum class PcapFlavor { LittleEndian, ByteSwapped, Nanosecond };

void put_u32_at(std::string& bytes, std::size_t offset, std::uint32_t v, bool big_endian) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t shift = 8 * (big_endian ? 3 - i : i);
    bytes[offset + i] = static_cast<char>((v >> shift) & 0xFF);
  }
}

/// Offsets of every record header in a little-endian capture.
std::vector<std::size_t> pcap_record_offsets(const std::string& bytes) {
  std::vector<std::size_t> offsets;
  for (std::size_t at = 24; at + 16 <= bytes.size(); at += 16 + u32_le_at(bytes, at + 8)) {
    offsets.push_back(at);
  }
  return offsets;
}

/// pcap_bytes() re-encoded as `flavor`: a byte-swapped capture flips every
/// global- and record-header word; a nanosecond one only changes the magic.
std::string pcap_bytes(PcapFlavor flavor) {
  std::string bytes = pcap_bytes();
  if (flavor == PcapFlavor::Nanosecond) put_u32_at(bytes, 0, 0xA1B23C4D, false);
  if (flavor == PcapFlavor::ByteSwapped) {
    const auto swap_words = [&bytes](std::size_t at, std::size_t words) {
      for (std::size_t w = 0; w < words; ++w) {
        put_u32_at(bytes, at + 4 * w, u32_le_at(bytes, at + 4 * w), /*big_endian=*/true);
      }
    };
    const auto records = pcap_record_offsets(bytes);
    swap_words(0, 6);
    for (std::size_t at : records) swap_words(at, 4);
  }
  return bytes;
}

TEST(TraceIoErrors, PcapRecordLongerThanSnaplenIsRejected) {
  const auto records = pcap_record_offsets(pcap_bytes());
  ASSERT_EQ(records.size(), 8u);
  std::uint32_t longest = 0;
  for (std::size_t at : records) longest = std::max(longest, u32_le_at(pcap_bytes(), at + 8));

  for (const auto& [flavor, name] :
       {std::pair{PcapFlavor::LittleEndian, "little-endian"},
        std::pair{PcapFlavor::ByteSwapped, "byte-swapped"},
        std::pair{PcapFlavor::Nanosecond, "nanosecond"}}) {
    SCOPED_TRACE(name);
    const bool big_endian = flavor == PcapFlavor::ByteSwapped;
    std::string bytes = pcap_bytes(flavor);
    // A snaplen the longest frame exactly fills: every record is accepted.
    put_u32_at(bytes, 16, longest, big_endian);
    {
      std::istringstream in(bytes);
      const PcapReadResult result = read_pcap(in);
      EXPECT_EQ(result.packets.size(), 8u);
      EXPECT_EQ(result.byte_swapped, big_endian);
      EXPECT_EQ(result.nanosecond_timestamps, flavor == PcapFlavor::Nanosecond);
    }
    // The fourth record claims one byte more than snaplen.
    put_u32_at(bytes, records[3] + 8, longest + 1, big_endian);
    expect_pcap_readers_reject(bytes, "pcap record longer than snaplen");

    std::istringstream in(bytes);
    CountingSink sink;
    const PcapReadResult result = stream_pcap_recovering(in, sink);
    EXPECT_EQ(sink.packets, 3u);
    EXPECT_EQ(result.packet_count, 3u);
    EXPECT_NE(result.stream_error.find("pcap record longer than snaplen"), std::string::npos)
        << "actual: " << result.stream_error;
  }
}

TEST(TraceIoErrors, PcapIpv4HeaderLengthBelowFiveIsSkipped) {
  // An IHL below 5 words would place the ports and TCP flags inside the
  // IPv4 header itself: such frames are not well-formed IPv4 and are
  // skipped, not parsed.
  std::string bytes = pcap_bytes();
  const auto records = pcap_record_offsets(bytes);
  ASSERT_EQ(records.size(), 8u);
  const std::size_t version_ihl = 16 + 14;  // record header, then Ethernet
  bytes[records[2] + version_ihl] = 0x40;   // IHL 0
  bytes[records[5] + version_ihl] = 0x44;   // IHL 4 (16 bytes)
  {
    std::istringstream in(bytes);
    const PcapReadResult result = read_pcap(in);
    EXPECT_EQ(result.packets.size(), 6u);
    EXPECT_EQ(result.packet_count, 6u);
    EXPECT_EQ(result.skipped_non_ipv4, 2u);
    EXPECT_EQ(result.truncated, 0u);
  }
  {
    std::istringstream in(bytes);
    CountingSink sink;
    const PcapReadResult result = stream_pcap_recovering(in, sink);
    EXPECT_EQ(sink.packets, 6u);
    EXPECT_EQ(result.packet_count, 6u);
    EXPECT_EQ(result.skipped_non_ipv4, 2u);
    EXPECT_TRUE(result.stream_error.empty()) << "unexpected: " << result.stream_error;
  }
}

TEST(TraceIoErrors, RecoveringPcapStreamIsCleanOnIntactInput) {
  std::istringstream in(pcap_bytes());
  CountingSink sink;
  const PcapReadResult result = stream_pcap_recovering(in, sink);
  EXPECT_EQ(sink.packets, 8u);
  EXPECT_TRUE(result.stream_error.empty()) << "unexpected: " << result.stream_error;
}

TEST(TraceIoErrors, ReadersStillAcceptTheUndamagedBytes) {
  // Guard the tests above against drifting offsets: the pristine writer
  // output must round-trip through every reader.
  {
    std::istringstream in(binary_trace_bytes());
    EXPECT_EQ(read_packet_trace(in).size(), 8u);
  }
  {
    std::istringstream in(packet_csv_bytes());
    EXPECT_EQ(read_packet_csv(in).size(), 8u);
  }
  {
    std::istringstream in(pcap_bytes());
    EXPECT_EQ(read_pcap(in).packets.size(), 8u);
  }
  {
    std::istringstream in(binary_trace_bytes());
    CountingSink sink;
    EXPECT_EQ(stream_packet_trace(in, sink), 8u);
    EXPECT_EQ(sink.packets, 8u);
  }
}

}  // namespace
}  // namespace monohids::trace
