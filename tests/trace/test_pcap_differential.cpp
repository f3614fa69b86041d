// Differential tests: the block-buffered pcap readers (read_pcap,
// stream_pcap, stream_pcap_recovering) must agree with
// oracle::parse_pcap_seed, the istream record loop they replaced, on hostile
// input. Captures from write_pcap are re-headered into all four magics
// (micro/nanosecond x native/byte-swapped) and then truncated, given extreme
// record lengths, or have their ethertype, version/IHL, protocol or random
// bytes flipped. Strict readers must throw the same diagnostic; the
// recovering reader must deliver the same packets, counters and
// stream_error. The block-boundary tests feed the readers through a
// streambuf that hands out 1-7 bytes per call, a record larger than the
// 64 KiB block, and records that straddle the block's end.
//
// Every case also runs from a temporary file through std::ifstream, which
// the readers map instead of reading block by block. Truncation at every
// offset through a file is what shows that the mapped source never reads
// past end of file: the sanitizers cannot see a read into the zero-filled
// tail of the last mapped page. The file-source tests add captures that
// start mid-page, a capture of a few MiB (drop-behind and prefetch reach
// end of file), and a FIFO and a filebuf subclass, which must take the
// block path.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oracle/pcap.hpp"
#include "stats/sampling.hpp"
#include "trace/pcap.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::trace {
namespace {

using net::PacketRecord;

constexpr std::size_t kGlobalHeader = 24;
constexpr std::size_t kRecordHeader = 16;
constexpr std::size_t kBlockBytes = 64 * 1024;
constexpr std::uint32_t kMaxRecordBytes = 10 * 1024 * 1024;
constexpr std::uint32_t kWriterSnaplen = 65535;
// incl_len values around every length check: empty, shorter than an
// Ethernet header, exactly snaplen, one past it, one past the 10 MiB cap,
// and the largest word.
constexpr std::array<std::uint32_t, 6> kHostileLengths{
    0, 13, kWriterSnaplen, kWriterSnaplen + 1, kMaxRecordBytes + 1, 0xFFFFFFFF};
// Frame offsets of the bytes the structure-aware mutations target.
constexpr std::size_t kEthertypeAt = 12;
constexpr std::size_t kVersionIhlAt = 14;
constexpr std::size_t kProtocolAt = 14 + 9;

/// One of the four global-header encodings the readers accept.
struct Flavor {
  bool nanosecond;
  bool swapped;
  const char* name;
};
constexpr std::array<Flavor, 4> kFlavors{{{false, false, "micro native"},
                                          {true, false, "nano native"},
                                          {false, true, "micro swapped"},
                                          {true, true, "nano swapped"}}};

std::uint32_t get_u32(const std::string& bytes, std::size_t at, bool big_endian) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t shift = 8 * (big_endian ? 3 - i : i);
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i])) << shift;
  }
  return v;
}

void set_u32(std::string& bytes, std::size_t at, std::uint32_t v, bool big_endian) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t shift = 8 * (big_endian ? 3 - i : i);
    bytes[at + i] = static_cast<char>((v >> shift) & 0xFF);
  }
}

/// Offsets of every whole record header, following the incl_len chain.
std::vector<std::size_t> record_offsets(const std::string& bytes, bool swapped) {
  std::vector<std::size_t> offsets;
  for (std::size_t at = kGlobalHeader; at + kRecordHeader <= bytes.size();
       at += kRecordHeader + get_u32(bytes, at + 8, swapped)) {
    offsets.push_back(at);
  }
  return offsets;
}

/// Seeded mix of TCP/UDP/ICMP packets with 0-1400 payload bytes.
std::vector<PacketRecord> random_packets(util::Xoshiro256& rng, std::size_t count) {
  std::vector<PacketRecord> packets;
  util::Timestamp now = 0;
  for (std::size_t i = 0; i < count; ++i) {
    now += stats::sample_uniform_int(rng, 0, 5'000'000);
    PacketRecord p;
    p.timestamp = now;
    p.tuple.src_ip = net::Ipv4Address(0x0A000001);
    p.tuple.dst_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    const std::uint64_t proto = stats::sample_uniform_int(rng, 0, 9);
    p.tuple.protocol = proto < 6   ? net::Protocol::Tcp
                       : proto < 9 ? net::Protocol::Udp
                                   : net::Protocol::Icmp;
    if (p.tuple.protocol != net::Protocol::Icmp) {
      p.tuple.src_port = static_cast<std::uint16_t>(rng());
      p.tuple.dst_port = static_cast<std::uint16_t>(rng());
    }
    if (p.tuple.protocol == net::Protocol::Tcp) {
      p.tcp_flags = static_cast<net::TcpFlags>(rng() & 0x1F);
    }
    p.payload_bytes = static_cast<std::uint16_t>(stats::sample_uniform_int(rng, 0, 1400));
    packets.push_back(p);
  }
  return packets;
}

/// write_pcap output: little-endian, microsecond timestamps, snaplen 65535.
std::string native_capture(const std::vector<PacketRecord>& packets) {
  std::ostringstream out;
  write_pcap(out, packets);
  return out.str();
}

/// A native capture re-encoded as `flavor`: a nanosecond capture scales
/// every fractional timestamp to nanoseconds, a byte-swapped one flips every
/// global- and record-header word.
std::string reheader(std::string bytes, const Flavor& flavor) {
  const std::vector<std::size_t> records = record_offsets(bytes, false);
  if (flavor.nanosecond) {
    set_u32(bytes, 0, 0xA1B23C4D, false);
    for (std::size_t at : records) {
      set_u32(bytes, at + 4, get_u32(bytes, at + 4, false) * 1000, false);
    }
  }
  if (flavor.swapped) {
    const auto swap_words = [&bytes](std::size_t at, std::size_t words) {
      for (std::size_t w = 0; w < words; ++w) {
        set_u32(bytes, at + 4 * w, get_u32(bytes, at + 4 * w, false), true);
      }
    };
    swap_words(0, 6);
    for (std::size_t at : records) swap_words(at, 4);
  }
  return bytes;
}

/// Grows the native record at `record` to `incl_len` bytes (and raises the
/// snaplen to `snaplen`) by padding its frame with trailing zeros.
std::string pad_record(std::string bytes, std::size_t record, std::uint32_t incl_len,
                       std::uint32_t snaplen) {
  const std::uint32_t frame = get_u32(bytes, record + 8, false);
  EXPECT_GE(incl_len, frame);
  bytes.insert(record + kRecordHeader + frame, incl_len - frame, '\0');
  set_u32(bytes, record + 8, incl_len, false);
  set_u32(bytes, record + 12, incl_len, false);
  set_u32(bytes, 16, snaplen, false);
  return bytes;
}

/// A read-only streambuf that hands out 1-7 bytes per call from both
/// underflow and xsgetn, so every header and body straddles refills.
class DripBuf final : public std::streambuf {
 public:
  DripBuf(std::string bytes, std::uint64_t seed) : bytes_(std::move(bytes)), rng_(seed) {}

 protected:
  int_type underflow() override {
    if (next_ == bytes_.size()) return traits_type::eof();
    const std::size_t step =
        std::min<std::size_t>(stats::sample_uniform_int(rng_, 1, 7), bytes_.size() - next_);
    char* begin = bytes_.data() + next_;
    setg(begin, begin, begin + step);
    next_ += step;
    return traits_type::to_int_type(*begin);
  }

  std::streamsize xsgetn(char* out, std::streamsize n) override {
    if (n <= 0 || (gptr() == egptr() && underflow() == traits_type::eof())) return 0;
    const std::streamsize step = std::min<std::streamsize>(n, egptr() - gptr());
    std::memcpy(out, gptr(), static_cast<std::size_t>(step));
    gbump(static_cast<int>(step));
    return step;
  }

 private:
  std::string bytes_;
  std::size_t next_ = 0;
  util::Xoshiro256 rng_;
};

/// What one reader made of one capture.
struct Outcome {
  std::string error;  ///< diagnostic of a thrown InputError ("" = none)
  PcapReadResult result;
};

/// The diagnostic part of an InputError message: MONOHIDS_ENSURE prefixes
/// the failed expression and its source location, which differ between the
/// library and the oracle.
std::string diagnostic(const std::string& what) {
  const std::string separator = " — ";
  const std::size_t at = what.rfind(separator);
  return at == std::string::npos ? what : what.substr(at + separator.size());
}

class CollectingSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const PacketRecord> batch) override {
    packets.insert(packets.end(), batch.begin(), batch.end());
  }
  std::vector<PacketRecord> packets;
};

enum class Reader { Strict, Streamed, Recovering };
constexpr std::array<Reader, 3> kReaders{Reader::Strict, Reader::Streamed,
                                         Reader::Recovering};

/// Runs one library reader over `in`. Streamed and recovering results carry
/// the packets their sink received.
Outcome run_library(std::istream& in, Reader reader) {
  Outcome out;
  CollectingSink sink;
  try {
    switch (reader) {
      case Reader::Strict: out.result = read_pcap(in); break;
      case Reader::Streamed: out.result = stream_pcap(in, sink, 7); break;
      case Reader::Recovering: out.result = stream_pcap_recovering(in, sink, 7); break;
    }
  } catch (const InputError& e) {
    out.error = diagnostic(e.what());
    return out;
  }
  if (reader != Reader::Strict) {
    EXPECT_TRUE(out.result.packets.empty());
    EXPECT_EQ(out.result.packet_count, sink.packets.size());
    out.result.packets = std::move(sink.packets);
  }
  out.result.stream_error = diagnostic(out.result.stream_error);
  return out;
}

Outcome run_library(const std::string& bytes, Reader reader) {
  std::istringstream in(bytes);
  return run_library(in, reader);
}

/// A private temporary directory, removed when the test program exits.
const std::filesystem::path& scratch_dir() {
  struct Dir {
    Dir() {
      std::string pattern =
          (std::filesystem::temp_directory_path() / "monohids-pcap-XXXXXX").string();
      if (::mkdtemp(pattern.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
      path = pattern;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::filesystem::path path;
  };
  static const Dir dir;
  return dir.path;
}

/// Writes `bytes` to the scratch capture file, replacing what was there.
std::filesystem::path write_capture(const std::string& bytes) {
  const std::filesystem::path path = scratch_dir() / "capture.pcap";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_TRUE(out.good()) << "cannot write " << path;
  return path;
}

/// Runs one library reader over the file at `path` through std::ifstream,
/// after reading past its first `prefix` bytes through the stream itself.
Outcome run_library_from_file(const std::filesystem::path& path, Reader reader,
                              std::size_t prefix = 0) {
  std::ifstream in(path, std::ios::binary);
  std::string skipped(prefix, '\0');
  in.read(skipped.data(), static_cast<std::streamsize>(prefix));
  EXPECT_TRUE(in.good());
  return run_library(in, reader);
}

Outcome run_library_from_file(const std::string& bytes, Reader reader) {
  return run_library_from_file(write_capture(bytes), reader);
}

Outcome run_library_dripped(const std::string& bytes, Reader reader, std::uint64_t seed) {
  DripBuf drip(bytes, seed);
  std::istream in(&drip);
  return run_library(in, reader);
}

Outcome run_oracle(const std::string& bytes, bool recover) {
  std::istringstream in(bytes);
  Outcome out;
  try {
    out.result = oracle::parse_pcap_seed(in, recover);
  } catch (const InputError& e) {
    out.error = diagnostic(e.what());
    return out;
  }
  out.result.stream_error = diagnostic(out.result.stream_error);
  return out;
}

void expect_same(const Outcome& library, const Outcome& seed) {
  ASSERT_EQ(library.error, seed.error);
  if (!seed.error.empty()) return;
  const PcapReadResult& a = library.result;
  const PcapReadResult& b = seed.result;
  EXPECT_EQ(a.packet_count, b.packet_count);
  EXPECT_EQ(a.skipped_non_ipv4, b.skipped_non_ipv4);
  EXPECT_EQ(a.skipped_protocol, b.skipped_protocol);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.nanosecond_timestamps, b.nanosecond_timestamps);
  EXPECT_EQ(a.byte_swapped, b.byte_swapped);
  EXPECT_EQ(a.stream_error, b.stream_error);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_EQ(a.packets[i], b.packets[i]) << "packet " << i;
  }
}

/// Every library reader against the oracle on `bytes`; `drip_seed` adds the
/// recovering reader fed through a DripBuf.
void expect_readers_match_oracle(const std::string& bytes, std::uint64_t drip_seed = 0) {
  const Outcome strict = run_oracle(bytes, false);
  const Outcome recovering = run_oracle(bytes, true);
  {
    SCOPED_TRACE("read_pcap");
    expect_same(run_library(bytes, Reader::Strict), strict);
  }
  {
    SCOPED_TRACE("stream_pcap");
    expect_same(run_library(bytes, Reader::Streamed), strict);
  }
  {
    SCOPED_TRACE("stream_pcap_recovering");
    expect_same(run_library(bytes, Reader::Recovering), recovering);
  }
  if (drip_seed != 0) {
    SCOPED_TRACE("stream_pcap_recovering, dripped");
    expect_same(run_library_dripped(bytes, Reader::Recovering, drip_seed), recovering);
  }
  SCOPED_TRACE("from a file");
  const std::filesystem::path path = write_capture(bytes);
  for (Reader reader : kReaders) {
    expect_same(run_library_from_file(path, reader),
                reader == Reader::Recovering ? recovering : strict);
  }
}

std::string base_capture(std::uint64_t seed, std::size_t packets) {
  util::Xoshiro256 rng(seed);
  return native_capture(random_packets(rng, packets));
}

TEST(PcapDifferential, IntactCapturesMatchInEveryFlavor) {
  util::Xoshiro256 rng(1);
  const std::vector<PacketRecord> packets = random_packets(rng, 40);
  for (const Flavor& flavor : kFlavors) {
    SCOPED_TRACE(flavor.name);
    const std::string bytes = reheader(native_capture(packets), flavor);
    expect_readers_match_oracle(bytes, 11);
    const Outcome seed = run_oracle(bytes, false);
    EXPECT_EQ(seed.result.packets, packets);
    EXPECT_EQ(seed.result.byte_swapped, flavor.swapped);
    EXPECT_EQ(seed.result.nanosecond_timestamps, flavor.nanosecond);
  }
}

TEST(PcapDifferential, TruncationAtEveryOffsetOfTheFirstRecords) {
  // Every cut through the global header and the first three records: empty
  // stream, truncated global header, clean EOF on 0-3 trailing bytes,
  // truncated record header on 4-15, truncated body.
  for (const Flavor& flavor : kFlavors) {
    SCOPED_TRACE(flavor.name);
    const std::string bytes = reheader(base_capture(2, 5), flavor);
    const std::vector<std::size_t> records = record_offsets(bytes, flavor.swapped);
    ASSERT_GE(records.size(), 4u);
    for (std::size_t cut = 0; cut <= records[3]; ++cut) {
      SCOPED_TRACE("cut at " + std::to_string(cut));
      expect_readers_match_oracle(bytes.substr(0, cut), cut + 1);
    }
  }
}

TEST(PcapDifferential, ExtremeRecordLengths) {
  for (const Flavor& flavor : kFlavors) {
    SCOPED_TRACE(flavor.name);
    const std::string bytes = reheader(base_capture(3, 5), flavor);
    const std::vector<std::size_t> records = record_offsets(bytes, flavor.swapped);
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::uint32_t length : kHostileLengths) {
        SCOPED_TRACE("record " + std::to_string(r) + " incl_len " + std::to_string(length));
        std::string mutated = bytes;
        set_u32(mutated, records[r] + 8, length, flavor.swapped);
        expect_readers_match_oracle(mutated, length + 1);
      }
    }
  }
}

TEST(PcapDifferential, EveryVersionIhlAndProtocolByte) {
  for (const Flavor& flavor : kFlavors) {
    SCOPED_TRACE(flavor.name);
    const std::string bytes = reheader(base_capture(4, 3), flavor);
    const std::size_t frame = record_offsets(bytes, flavor.swapped)[1] + kRecordHeader;
    for (std::size_t at : {kVersionIhlAt, kProtocolAt}) {
      for (int value = 0; value < 256; ++value) {
        SCOPED_TRACE("frame byte " + std::to_string(at) + " = " + std::to_string(value));
        std::string mutated = bytes;
        mutated[frame + at] = static_cast<char>(value);
        expect_readers_match_oracle(mutated);
      }
    }
  }
}

TEST(PcapDifferential, SeededStructureAwareMutations) {
  constexpr std::uint64_t kCases = 640;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    util::Xoshiro256 rng(seed);
    const Flavor& flavor = kFlavors[seed % kFlavors.size()];
    std::string bytes =
        reheader(native_capture(random_packets(rng, stats::sample_uniform_int(rng, 1, 12))),
                 flavor);
    const std::vector<std::size_t> records = record_offsets(bytes, flavor.swapped);
    const auto any_record = [&] {
      return records[stats::sample_uniform_int(rng, 0, records.size() - 1)];
    };
    // An earlier truncation may have cut off the byte a mutation targets.
    const auto poke = [&bytes](std::size_t at, std::uint64_t value) {
      if (at < bytes.size()) bytes[at] = static_cast<char>(value);
    };
    const std::uint64_t mutations = stats::sample_uniform_int(rng, 1, 3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      switch (stats::sample_uniform_int(rng, 0, 6)) {
        case 0: {  // record length from the hostile list
          const std::size_t at = any_record() + 8;
          const std::uint32_t length =
              kHostileLengths[stats::sample_uniform_int(rng, 0, kHostileLengths.size() - 1)];
          if (at + 4 <= bytes.size()) set_u32(bytes, at, length, flavor.swapped);
          break;
        }
        case 1:  // one ethertype byte
          poke(any_record() + kRecordHeader + kEthertypeAt +
                   stats::sample_uniform_int(rng, 0, 1),
               rng());
          break;
        case 2:  // version/IHL
          poke(any_record() + kRecordHeader + kVersionIhlAt, rng());
          break;
        case 3:  // protocol
          poke(any_record() + kRecordHeader + kProtocolAt, rng());
          break;
        case 4:  // snaplen somewhere around the frame sizes
          set_u32(bytes, 16,
                  static_cast<std::uint32_t>(stats::sample_uniform_int(rng, 0, 1500)),
                  flavor.swapped);
          break;
        case 5: {  // random bit flips anywhere
          const std::uint64_t flips = stats::sample_uniform_int(rng, 1, 4);
          for (std::uint64_t f = 0; f < flips; ++f) {
            bytes[stats::sample_uniform_int(rng, 0, bytes.size() - 1)] ^=
                static_cast<char>(1u << stats::sample_uniform_int(rng, 0, 7));
          }
          break;
        }
        default:  // truncation
          bytes.resize(stats::sample_uniform_int(rng, 0, bytes.size()));
          break;
      }
      if (bytes.size() < kGlobalHeader + kRecordHeader) break;
    }
    expect_readers_match_oracle(bytes, seed);
    if (HasFatalFailure()) return;
  }
}

TEST(PcapDifferential, StreamNotGoodOnEntryReadsAsEmpty) {
  // The readers bypass the stream's own reads, but still honour its state.
  const std::string bytes = base_capture(8, 3);
  for (std::ios::iostate state : {std::ios::failbit, std::ios::eofbit, std::ios::badbit}) {
    std::istringstream seed_in(bytes);
    seed_in.setstate(state);
    Outcome seed;
    try {
      (void)oracle::parse_pcap_seed(seed_in, true);
    } catch (const InputError& e) {
      seed.error = diagnostic(e.what());
    }
    EXPECT_EQ(seed.error, "pcap stream is empty");
    const std::filesystem::path path = write_capture(bytes);
    for (Reader reader : kReaders) {
      std::istringstream in(bytes);
      in.setstate(state);
      expect_same(run_library(in, reader), seed);
      std::ifstream file(path, std::ios::binary);
      file.setstate(state);
      expect_same(run_library(file, reader), seed);
    }
  }
}

// ------------------------------------------------------------ block boundaries

TEST(PcapDifferential, DripFedStreamMatchesWholeStream) {
  // 1-7 bytes per refill: every record header and body straddles a refill.
  // Well over 64 KiB, so the block wraps many times as well.
  for (const Flavor& flavor : kFlavors) {
    SCOPED_TRACE(flavor.name);
    const std::string bytes = reheader(base_capture(5, 400), flavor);
    ASSERT_GT(bytes.size(), 2 * kBlockBytes);
    const Outcome seed = run_oracle(bytes, false);
    ASSERT_EQ(seed.result.packets.size(), 400u);
    for (Reader reader : kReaders) {
      expect_same(run_library_dripped(bytes, reader, 21), seed);
      expect_same(run_library(bytes, reader), seed);
      expect_same(run_library_from_file(bytes, reader), seed);
    }
    // And a cut mid-body of the last record through the drip.
    expect_readers_match_oracle(bytes.substr(0, bytes.size() - 3), 22);
  }
}

TEST(PcapDifferential, RecordLargerThanTheBlock) {
  // A 200 KiB record (snaplen 256 KiB) between ordinary ones: the block
  // grows to hold it, and the records after it still parse.
  constexpr std::uint32_t kBig = 200 * 1024;
  const std::string native = base_capture(6, 6);
  const std::string padded =
      pad_record(native, record_offsets(native, false)[2], kBig, 262144);
  for (const Flavor& flavor : kFlavors) {
    SCOPED_TRACE(flavor.name);
    const std::string bytes = reheader(padded, flavor);
    const Outcome seed = run_oracle(bytes, false);
    ASSERT_EQ(seed.error, "");
    ASSERT_EQ(seed.result.packets.size(), 6u);
    for (Reader reader : kReaders) {
      expect_same(run_library(bytes, reader), seed);
      expect_same(run_library_dripped(bytes, reader, 31), seed);
      expect_same(run_library_from_file(bytes, reader), seed);
    }
    // Cut inside the big record: the strict readers throw, the recovering
    // one keeps the two records before it.
    const std::size_t big = record_offsets(bytes, flavor.swapped)[2];
    const std::string cut = bytes.substr(0, big + 100'000);
    expect_readers_match_oracle(cut, 32);
    EXPECT_EQ(run_library(cut, Reader::Recovering).result.packets.size(), 2u);
    EXPECT_EQ(run_library_from_file(cut, Reader::Recovering).result.packets.size(), 2u);
  }
}

TEST(PcapDifferential, RecordsStraddleTheBlockEnd) {
  // A padded first record puts the second record's header at 64 KiB - k,
  // for every k from the header's first byte to past the decoded frame
  // headers: the header, then the frame, then the payload straddle the end
  // of the first block.
  const std::string native = base_capture(7, 8);
  const std::size_t first = record_offsets(native, false)[0];
  const std::size_t frame = get_u32(native, first + 8, false);
  for (std::size_t k = 0; k <= kRecordHeader + 64; ++k) {
    const auto incl_len =
        static_cast<std::uint32_t>(kBlockBytes - k - kGlobalHeader - kRecordHeader);
    ASSERT_GE(incl_len, frame);
    const std::string padded = pad_record(native, first, incl_len, 1 << 20);
    ASSERT_EQ(record_offsets(padded, false)[1], kBlockBytes - k);
    for (const Flavor& flavor : kFlavors) {
      SCOPED_TRACE(std::string(flavor.name) + ", k = " + std::to_string(k));
      const std::string bytes = reheader(padded, flavor);
      const Outcome seed = run_oracle(bytes, false);
      ASSERT_EQ(seed.result.packets.size(), 8u);
      const std::filesystem::path path = write_capture(bytes);
      for (Reader reader : kReaders) {
        expect_same(run_library(bytes, reader), seed);
        expect_same(run_library_from_file(path, reader), seed);
      }
      expect_same(run_library_dripped(bytes, Reader::Strict, k + 41), seed);
      // The capture ending exactly at, or just past, the block's end.
      expect_readers_match_oracle(bytes.substr(0, kBlockBytes), k + 42);
      expect_readers_match_oracle(bytes.substr(0, kBlockBytes + 1), k + 43);
    }
  }
}

// ------------------------------------------------------------ file source

/// A filebuf subclass: it could transform the bytes it reads, so the readers
/// must pull it block by block rather than map its file.
class SubclassedFilebuf final : public std::filebuf {};

TEST(PcapDifferential, FileSourceStartsWhereTheStreamStands) {
  // The mapping starts at the stream's logical position: not page-aligned,
  // and behind whatever the filebuf has already buffered past it.
  for (const Flavor& flavor : kFlavors) {
    const std::string bytes = reheader(base_capture(9, 30), flavor);
    const std::string cut = bytes.substr(0, bytes.size() - 5);
    const Outcome strict = run_oracle(bytes, false);
    const Outcome cut_recovering = run_oracle(cut, true);
    ASSERT_EQ(strict.result.packets.size(), 30u);
    ASSERT_EQ(cut_recovering.result.packets.size(), 29u);
    for (const std::size_t prefix : {1, 4095, 4096, 4097}) {
      SCOPED_TRACE(std::string(flavor.name) + ", prefix " + std::to_string(prefix));
      const std::string junk(prefix, '\xA5');
      const std::filesystem::path whole = write_capture(junk + bytes);
      for (Reader reader : kReaders) {
        expect_same(run_library_from_file(whole, reader, prefix), strict);
      }
      const std::filesystem::path truncated = write_capture(junk + cut);
      expect_same(run_library_from_file(truncated, Reader::Recovering, prefix),
                  cut_recovering);
    }
  }
}

TEST(PcapDifferential, FileSourceCaptureOfSeveralMebibytes) {
  // Pages behind the cursor are returned every 256 KiB, and the prefetch
  // cursor runs into end of file; cuts near the end, through the file, show
  // that neither reads past it.
  const std::string bytes = reheader(base_capture(10, 6000), kFlavors[3]);
  ASSERT_GT(bytes.size(), std::size_t{4} << 20);
  for (const std::size_t short_by : {0, 1, 5, 17, 2000}) {
    SCOPED_TRACE("short by " + std::to_string(short_by));
    expect_readers_match_oracle(bytes.substr(0, bytes.size() - short_by));
  }
}

TEST(PcapDifferential, FifoAndFilebufSubclassTakeTheBlockPath) {
  const std::string bytes = reheader(base_capture(11, 200), kFlavors[1]);
  ASSERT_GT(bytes.size(), 2 * kBlockBytes);
  const Outcome strict = run_oracle(bytes, false);
  const Outcome recovering = run_oracle(bytes, true);
  const std::filesystem::path fifo = scratch_dir() / "capture.fifo";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::filesystem::path file = write_capture(bytes);
  for (Reader reader : kReaders) {
    const Outcome& seed = reader == Reader::Recovering ? recovering : strict;
    {
      SCOPED_TRACE("FIFO");
      // The capture is whole, so every reader drains the pipe to its end
      // and the writer never blocks on a closed reader.
      std::thread writer([&] {
        std::ofstream out(fifo, std::ios::binary);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      });
      Outcome got;
      {
        std::ifstream in(fifo, std::ios::binary);
        got = run_library(in, reader);
      }
      writer.join();
      expect_same(got, seed);
    }
    {
      SCOPED_TRACE("filebuf subclass");
      SubclassedFilebuf buf;
      ASSERT_NE(buf.open(file, std::ios::in | std::ios::binary), nullptr);
      std::istream in(&buf);
      expect_same(run_library(in, reader), seed);
    }
  }
}

/// Appends `tail` to the file at `path` once, on the first batch it sees.
class AppendingSink final : public features::PacketSink {
 public:
  AppendingSink(std::filesystem::path path, std::string tail)
      : path_(std::move(path)), tail_(std::move(tail)) {}
  void on_batch(std::span<const PacketRecord> batch) override {
    if (count == 0) {
      std::ofstream out(path_, std::ios::binary | std::ios::app);
      out.write(tail_.data(), static_cast<std::streamsize>(tail_.size()));
    }
    count += batch.size();
  }
  std::size_t count = 0;

 private:
  std::filesystem::path path_;
  std::string tail_;
};

TEST(PcapDifferential, FileSourceEndsAtTheSizeTheReaderOpened) {
  // Records appended while a reader runs: a mapped std::ifstream stops at
  // the size the file had when the reader started, while a filebuf
  // subclass, read block by block, reads on. This is also what shows that
  // std::ifstream takes the mapped source at all.
  const std::string first = base_capture(12, 20);
  const std::string appended = base_capture(13, 20).substr(kGlobalHeader);
  {
    AppendingSink sink(write_capture(first), appended);
    std::ifstream in(scratch_dir() / "capture.pcap", std::ios::binary);
    EXPECT_EQ(stream_pcap(in, sink, 7).packet_count, 20u);
    EXPECT_EQ(sink.count, 20u);
  }
  {
    AppendingSink sink(write_capture(first), appended);
    SubclassedFilebuf buf;
    ASSERT_NE(buf.open(scratch_dir() / "capture.pcap", std::ios::in | std::ios::binary),
              nullptr);
    std::istream in(&buf);
    EXPECT_EQ(stream_pcap(in, sink, 7).packet_count, 40u);
    EXPECT_EQ(sink.count, 40u);
  }
}

}  // namespace
}  // namespace monohids::trace
