#include "trace/pcap.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <locale>
#include <ostream>
#include <streambuf>
#include <typeinfo>

#if defined(__GLIBCXX__) && defined(__unix__)
#define MONOHIDS_PCAP_MAPPED 1
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MONOHIDS_PCAP_MAPPED 0
#endif

#include "util/error.hpp"

namespace monohids::trace {

namespace {

constexpr std::uint32_t kMagicMicro = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNano = 0xa1b23c4d;
constexpr std::uint32_t kMagicMicroSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNanoSwapped = 0x4d3cb2a1;
constexpr std::uint32_t kLinktypeEthernet = 1;
constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
constexpr std::size_t kEthernetHeader = 14;
constexpr std::size_t kIpv4Header = 20;
constexpr std::size_t kTcpHeader = 20;
constexpr std::size_t kUdpHeader = 8;
constexpr std::size_t kIcmpHeader = 8;

// ------------------------------------------------------------ writing

void put_u16be(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32be(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
  buf.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  buf.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  buf.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32le(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> bytes{
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  out.write(bytes.data(), bytes.size());
}

/// Deterministic locally-administered MAC derived from an IPv4 address.
void put_mac(std::vector<std::uint8_t>& buf, net::Ipv4Address ip) {
  buf.push_back(0x02);  // locally administered, unicast
  buf.push_back(0x00);
  for (int i = 0; i < 4; ++i) buf.push_back(ip.octet(i));
}

std::uint8_t tcp_flag_bits(net::TcpFlags flags) {
  // Our flag bit layout matches TCP's low flag bits (FIN=1, SYN=2, RST=4,
  // PSH=8, ACK=16).
  return static_cast<std::uint8_t>(flags);
}

}  // namespace

namespace {

/// Accumulates big-endian 16-bit words into a running RFC 1071 sum; an odd
/// trailing byte is padded with zero as the RFC prescribes.
std::uint32_t ones_complement_sum(const std::uint8_t* data, std::size_t length,
                                  std::uint32_t sum) {
  std::size_t i = 0;
  for (; i + 1 < length; i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < length) sum += static_cast<std::uint32_t>(data[i]) << 8;
  return sum;
}

std::uint16_t fold_checksum(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFF);
}

}  // namespace

std::uint16_t ipv4_header_checksum(const std::uint8_t* header, std::size_t length) {
  MONOHIDS_EXPECT(length % 2 == 0, "checksum needs an even-length header");
  return fold_checksum(ones_complement_sum(header, length, 0));
}

std::uint16_t ipv4_transport_checksum(net::Ipv4Address src, net::Ipv4Address dst,
                                      std::uint8_t protocol, const std::uint8_t* segment,
                                      std::size_t length) {
  // Pseudo-header: source, destination, zero+protocol, transport length.
  std::uint32_t sum = 0;
  sum += src.value() >> 16;
  sum += src.value() & 0xFFFF;
  sum += dst.value() >> 16;
  sum += dst.value() & 0xFFFF;
  sum += protocol;
  sum += static_cast<std::uint32_t>(length);
  return fold_checksum(ones_complement_sum(segment, length, sum));
}

std::uint16_t icmp_checksum(const std::uint8_t* message, std::size_t length) {
  return fold_checksum(ones_complement_sum(message, length, 0));
}

void write_pcap(std::ostream& out, const std::vector<net::PacketRecord>& packets) {
  // global header
  put_u32le(out, kMagicMicro);
  put_u32le(out, (2u << 16) | 4u);  // version 2.4
  put_u32le(out, 0);                // thiszone
  put_u32le(out, 0);                // sigfigs
  put_u32le(out, 65535);            // snaplen
  put_u32le(out, kLinktypeEthernet);

  std::vector<std::uint8_t> frame;
  for (const net::PacketRecord& p : packets) {
    frame.clear();

    // Ethernet II
    put_mac(frame, p.tuple.dst_ip);
    put_mac(frame, p.tuple.src_ip);
    put_u16be(frame, kEthertypeIpv4);

    // transport header size
    std::size_t l4 = 0;
    std::uint8_t proto = 0;
    switch (p.tuple.protocol) {
      case net::Protocol::Tcp:
        l4 = kTcpHeader;
        proto = 6;
        break;
      case net::Protocol::Udp:
        l4 = kUdpHeader;
        proto = 17;
        break;
      case net::Protocol::Icmp:
        l4 = kIcmpHeader;
        proto = 1;
        break;
    }
    const std::uint16_t ip_total =
        static_cast<std::uint16_t>(kIpv4Header + l4 + p.payload_bytes);

    // IPv4 header
    const std::size_t ip_start = frame.size();
    frame.push_back(0x45);  // version 4, IHL 5
    frame.push_back(0x00);  // DSCP/ECN
    put_u16be(frame, ip_total);
    put_u16be(frame, 0);       // identification
    put_u16be(frame, 0x4000);  // don't fragment
    frame.push_back(64);       // TTL
    frame.push_back(proto);
    put_u16be(frame, 0);  // checksum placeholder
    put_u32be(frame, p.tuple.src_ip.value());
    put_u32be(frame, p.tuple.dst_ip.value());
    const std::uint16_t checksum =
        ipv4_header_checksum(frame.data() + ip_start, kIpv4Header);
    frame[ip_start + 10] = static_cast<std::uint8_t>(checksum >> 8);
    frame[ip_start + 11] = static_cast<std::uint8_t>(checksum & 0xFF);

    // transport header
    switch (p.tuple.protocol) {
      case net::Protocol::Tcp:
        put_u16be(frame, p.tuple.src_port);
        put_u16be(frame, p.tuple.dst_port);
        put_u32be(frame, 0);  // seq
        put_u32be(frame, 0);  // ack
        frame.push_back(0x50);  // data offset 5
        frame.push_back(tcp_flag_bits(p.tcp_flags));
        put_u16be(frame, 65535);  // window
        put_u16be(frame, 0);      // checksum placeholder
        put_u16be(frame, 0);      // urgent
        break;
      case net::Protocol::Udp:
        put_u16be(frame, p.tuple.src_port);
        put_u16be(frame, p.tuple.dst_port);
        put_u16be(frame, static_cast<std::uint16_t>(kUdpHeader + p.payload_bytes));
        put_u16be(frame, 0);  // checksum placeholder
        break;
      case net::Protocol::Icmp:
        frame.push_back(8);  // echo request
        frame.push_back(0);
        put_u16be(frame, 0);  // checksum placeholder
        put_u32be(frame, 0);  // identifier/sequence
        break;
    }
    frame.insert(frame.end(), p.payload_bytes, 0);

    // Fill in the transport checksum now that the (zero) payload is in place:
    // its bytes contribute nothing to the sum but its length enters the
    // pseudo-header, so the checksum must be computed over the full segment.
    const std::size_t l4_start = ip_start + kIpv4Header;
    const std::uint8_t* segment = frame.data() + l4_start;
    const std::size_t segment_len = frame.size() - l4_start;
    switch (p.tuple.protocol) {
      case net::Protocol::Tcp: {
        const std::uint16_t c =
            ipv4_transport_checksum(p.tuple.src_ip, p.tuple.dst_ip, 6, segment,
                                    segment_len);
        frame[l4_start + 16] = static_cast<std::uint8_t>(c >> 8);
        frame[l4_start + 17] = static_cast<std::uint8_t>(c & 0xFF);
        break;
      }
      case net::Protocol::Udp: {
        std::uint16_t c = ipv4_transport_checksum(p.tuple.src_ip, p.tuple.dst_ip,
                                                  17, segment, segment_len);
        if (c == 0) c = 0xFFFF;  // 0 means "no checksum" on the wire
        frame[l4_start + 6] = static_cast<std::uint8_t>(c >> 8);
        frame[l4_start + 7] = static_cast<std::uint8_t>(c & 0xFF);
        break;
      }
      case net::Protocol::Icmp: {
        const std::uint16_t c = icmp_checksum(segment, segment_len);
        frame[l4_start + 2] = static_cast<std::uint8_t>(c >> 8);
        frame[l4_start + 3] = static_cast<std::uint8_t>(c & 0xFF);
        break;
      }
    }

    // record header
    put_u32le(out, static_cast<std::uint32_t>(p.timestamp / 1'000'000));
    put_u32le(out, static_cast<std::uint32_t>(p.timestamp % 1'000'000));
    put_u32le(out, static_cast<std::uint32_t>(frame.size()));  // incl_len
    put_u32le(out, static_cast<std::uint32_t>(frame.size()));  // orig_len
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
}

namespace {

// ------------------------------------------------------------ reading

constexpr std::size_t kGlobalHeader = 24;
constexpr std::size_t kRecordHeader = 16;
constexpr std::uint32_t kMaxRecordBytes = 10 * 1024 * 1024;
constexpr std::size_t kBlockBytes = 64 * 1024;
// Mapped source: how far ahead of the cursor to prefetch, and how many
// consumed bytes to let pile up before returning their pages.
constexpr std::size_t kPrefetchAhead = 2 * 1024;
constexpr std::size_t kReleaseBytes = 256 * 1024;

#if MONOHIDS_PCAP_MAPPED
/// The descriptor behind a libstdc++ filebuf, reached through its protected
/// `_M_file` member (C++26's basic_filebuf::native_handle() replaces this).
struct FilebufDescriptor : std::filebuf {
  static int of(std::filebuf& buf) { return (buf.*&FilebufDescriptor::_M_file).fd(); }
};
#endif

/// A read-only private mapping of a regular file, from the stream's logical
/// position to the file's size at open. `bytes` stays null when `in` is not
/// exactly a std::filebuf on a regular file, nothing is left to read, or
/// anything fails: the caller then reads the stream block by block.
class FileMapping {
 public:
  explicit FileMapping(std::istream& in) {
#if MONOHIDS_PCAP_MAPPED
    // Exactly a filebuf: a subclass may transform the bytes it reads.
    std::streambuf* source = in.rdbuf();
    if (!in.good() || source == nullptr || typeid(*source) != typeid(std::filebuf)) return;
    auto& buf = static_cast<std::filebuf&>(*source);
    if (!std::use_facet<std::codecvt<char, char, std::mbstate_t>>(buf.getloc())
             .always_noconv()) {
      return;
    }
    // Pending output is flushed first, as a read through the filebuf would;
    // the logical position then accounts for the bytes it has buffered.
    if (buf.pubsync() != 0) return;
    const std::streamoff start = buf.pubseekoff(0, std::ios::cur, std::ios::in);
    const int fd = FilebufDescriptor::of(buf);
    struct stat st {};
    if (start < 0 || fd < 0 || ::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) return;
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const auto offset = static_cast<std::size_t>(start);
    const auto file_size = static_cast<std::size_t>(st.st_size);
    const std::size_t aligned = offset / page * page;
    if (offset >= file_size) return;  // nothing to map; the block path reads it as empty
    void* mapped = ::mmap(nullptr, file_size - aligned, PROT_READ, MAP_PRIVATE, fd,
                          static_cast<off_t>(aligned));
    if (mapped == MAP_FAILED) return;
    base_ = static_cast<std::uint8_t*>(mapped);
    length_ = file_size - aligned;
    lead_ = offset - aligned;
    page_bytes_ = page;
    bytes = base_ + lead_;
    size = file_size - offset;
#else
    (void)in;
#endif
  }
  ~FileMapping() {
#if MONOHIDS_PCAP_MAPPED
    if (base_ != nullptr) ::munmap(base_, length_);
#endif
  }
  FileMapping(const FileMapping&) = delete;
  FileMapping& operator=(const FileMapping&) = delete;

  /// Returns the pages wholly below `done` (an offset into `bytes`) that are
  /// not returned yet: mapped file pages count in the resident set.
  void release_before(std::size_t done) {
#if MONOHIDS_PCAP_MAPPED
    const std::size_t upto = (lead_ + done) / page_bytes_ * page_bytes_;
    if (upto > released_) {
      ::madvise(base_ + released_, upto - released_, MADV_DONTNEED);
      released_ = upto;
    }
#else
    (void)done;
#endif
  }

  const std::uint8_t* bytes = nullptr;  ///< the stream's next byte
  std::size_t size = 0;                 ///< bytes from there to end of file

 private:
  std::uint8_t* base_ = nullptr;  ///< page-aligned start of the mapping
  std::size_t length_ = 0;
  std::size_t lead_ = 0;          ///< bytes between base_ and the stream position
  std::size_t page_bytes_ = 1;
  std::size_t released_ = 0;      ///< mapping bytes already returned
};

/// The parser's byte source: looks at the next bytes in place and skips past
/// them, so no frame is copied out. A regular file behind exactly a
/// std::filebuf is read straight from a mapping (see FileMapping); any other
/// stream buffer is pulled through one reusable 64 KiB block.
class BlockReader {
 public:
  explicit BlockReader(std::istream& in) : mapping_(in) {
    if (mapping_.bytes != nullptr) {
      data_ = mapping_.bytes;
      end_ = mapping_.size;
      release_at_ = kReleaseBytes;
    } else {
      // A stream already in a failed state reads as empty, as
      // istream::read would.
      source_ = in.good() ? in.rdbuf() : nullptr;
      block_.resize(kBlockBytes);
      data_ = block_.data();
    }
  }

  /// Makes the next `n` bytes contiguous at data() and returns how many are
  /// there: fewer than `n` only at end of input. A record larger than the
  /// block grows it to fit. Invalidates what earlier data() calls returned.
  std::size_t peek(std::size_t n) {
    if (pos_ >= release_at_) {
      mapping_.release_before(pos_);
      release_at_ = pos_ + kReleaseBytes;
    }
    if (end_ - pos_ < n) refill(n);
    return std::min(n, end_ - pos_);
  }
  [[nodiscard]] const std::uint8_t* data() const { return data_ + pos_; }
  void skip(std::size_t n) {
    pos_ += n;
    // On the mapping, the next record's address depends on this one's
    // length, so without a prefetch every record waits on memory.
    if (mapping_.bytes != nullptr) {
      __builtin_prefetch(data_ + std::min(pos_ + kPrefetchAhead, end_));
    }
  }

 private:
  void refill(std::size_t n) {
    if (source_ == nullptr) return;  // the mapping (or a failed stream) has no more
    // The unread tail moves to the front; the source tops the block up.
    std::memmove(block_.data(), block_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    if (n > block_.size()) {
      block_.resize(n);
      data_ = block_.data();
    }
    while (end_ < n) {
      const std::streamsize got =
          source_->sgetn(reinterpret_cast<char*>(block_.data() + end_),
                         static_cast<std::streamsize>(block_.size() - end_));
      if (got <= 0) break;
      end_ += static_cast<std::size_t>(got);
    }
  }

  FileMapping mapping_;
  std::streambuf* source_ = nullptr;  ///< the block path's source
  std::vector<std::uint8_t> block_;
  const std::uint8_t* data_ = nullptr;  ///< the mapping, or the block
  std::size_t pos_ = 0;  ///< first unread byte
  std::size_t end_ = 0;  ///< one past the last byte available
  std::size_t release_at_ = SIZE_MAX;  ///< next drop-behind point (mapping only)
};

struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] bool has(std::size_t n) const { return pos + n <= size; }
  std::uint8_t u8() { return data[pos++]; }
  std::uint16_t u16be() {
    const std::uint16_t v = static_cast<std::uint16_t>(data[pos] << 8 | data[pos + 1]);
    pos += 2;
    return v;
  }
  std::uint32_t u32be() {
    const std::uint32_t v = static_cast<std::uint32_t>(data[pos]) << 24 |
                            static_cast<std::uint32_t>(data[pos + 1]) << 16 |
                            static_cast<std::uint32_t>(data[pos + 2]) << 8 |
                            static_cast<std::uint32_t>(data[pos + 3]);
    pos += 4;
    return v;
  }
};

/// A pcap header word: little-endian, or big-endian in a byte-swapped file.
std::uint32_t load_u32(const std::uint8_t* b, bool swapped) {
  if (swapped) {
    return static_cast<std::uint32_t>(b[0]) << 24 | static_cast<std::uint32_t>(b[1]) << 16 |
           static_cast<std::uint32_t>(b[2]) << 8 | static_cast<std::uint32_t>(b[3]);
  }
  return static_cast<std::uint32_t>(b[3]) << 24 | static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[1]) << 8 | static_cast<std::uint32_t>(b[0]);
}

/// The shared parse loop behind read_pcap and stream_pcap: fills the stats
/// fields of `result` and hands each parsed packet to `on_packet`. When
/// `recover` is set, an InputError raised after the global header parsed
/// cleanly is captured into result.stream_error instead of propagating, so
/// everything parsed before the fault survives (stream_pcap_recovering).
template <typename OnPacket>
void parse_pcap_stream(std::istream& in, PcapReadResult& result, OnPacket&& on_packet,
                       bool recover = false) {
  BlockReader reader(in);
  const std::size_t global = reader.peek(kGlobalHeader);
  MONOHIDS_ENSURE(global >= 4, "pcap stream is empty");
  bool swapped = false;
  switch (load_u32(reader.data(), /*swapped=*/false)) {
    case kMagicMicro: break;
    case kMagicNano: result.nanosecond_timestamps = true; break;
    case kMagicMicroSwapped: swapped = true; break;
    case kMagicNanoSwapped:
      swapped = true;
      result.nanosecond_timestamps = true;
      break;
    default:
      throw InputError("not a pcap stream (bad magic)");
  }
  result.byte_swapped = swapped;

  // version, thiszone and sigfigs (offsets 4-15) are not used.
  MONOHIDS_ENSURE(global == kGlobalHeader, "truncated pcap global header");
  const std::uint32_t snaplen = load_u32(reader.data() + 16, swapped);
  const std::uint32_t linktype = load_u32(reader.data() + 20, swapped);
  MONOHIDS_ENSURE(linktype == kLinktypeEthernet,
                  "unsupported pcap linktype " + std::to_string(linktype) +
                      " (only Ethernet is supported)");
  reader.skip(kGlobalHeader);

  while (true) {
    const std::size_t header = reader.peek(kRecordHeader);
    if (header < 4) break;  // clean EOF: not even a ts_sec word left
    std::uint32_t incl_len = 0;
    try {
      MONOHIDS_ENSURE(header == kRecordHeader, "truncated pcap record header");
      incl_len = load_u32(reader.data() + 8, swapped);
      MONOHIDS_ENSURE(incl_len <= kMaxRecordBytes, "implausible pcap record length");
      MONOHIDS_ENSURE(incl_len <= snaplen, "pcap record longer than snaplen");
      MONOHIDS_ENSURE(reader.peek(kRecordHeader + incl_len) == kRecordHeader + incl_len,
                      "truncated pcap record body");
    } catch (const InputError& e) {
      if (!recover) throw;
      result.stream_error = e.what();
      return;
    }
    // Valid until the next peek(); the payload is skipped, never copied.
    const std::uint8_t* record = reader.data();
    reader.skip(kRecordHeader + incl_len);
    const std::uint32_t ts_sec = load_u32(record, swapped);
    const std::uint32_t ts_frac = load_u32(record + 4, swapped);

    Cursor c{record + kRecordHeader, incl_len};
    if (!c.has(kEthernetHeader)) {
      ++result.truncated;
      continue;
    }
    c.pos = 12;  // skip MACs
    const std::uint16_t ethertype = c.u16be();
    if (ethertype != kEthertypeIpv4) {
      ++result.skipped_non_ipv4;
      continue;
    }
    if (!c.has(kIpv4Header)) {
      ++result.truncated;
      continue;
    }
    const std::size_t ip_start = c.pos;
    const std::uint8_t version_ihl = c.u8();
    const std::size_t ihl = static_cast<std::size_t>(version_ihl & 0x0F) * 4;
    // An IHL below 5 words would put the "transport header" inside the
    // IPv4 header itself.
    if ((version_ihl >> 4) != 4 || ihl < kIpv4Header) {
      ++result.skipped_non_ipv4;
      continue;
    }
    c.pos = ip_start + 2;
    const std::uint16_t total_len = c.u16be();
    c.pos = ip_start + 9;
    const std::uint8_t proto = c.u8();
    c.pos = ip_start + 12;
    const std::uint32_t src = c.u32be();
    const std::uint32_t dst = c.u32be();
    c.pos = ip_start + ihl;

    net::PacketRecord p;
    const std::uint64_t micros =
        result.nanosecond_timestamps ? ts_frac / 1000 : ts_frac;
    p.timestamp = static_cast<util::Timestamp>(ts_sec) * 1'000'000 + micros;
    p.tuple.src_ip = net::Ipv4Address(src);
    p.tuple.dst_ip = net::Ipv4Address(dst);

    std::size_t l4 = 0;
    if (proto == 6) {
      p.tuple.protocol = net::Protocol::Tcp;
      if (!c.has(kTcpHeader)) {
        ++result.truncated;
        continue;
      }
      p.tuple.src_port = c.u16be();
      p.tuple.dst_port = c.u16be();
      c.pos += 9;  // seq, ack, data offset
      p.tcp_flags = static_cast<net::TcpFlags>(c.u8() & 0x1F);
      l4 = kTcpHeader;
    } else if (proto == 17) {
      p.tuple.protocol = net::Protocol::Udp;
      if (!c.has(kUdpHeader)) {
        ++result.truncated;
        continue;
      }
      p.tuple.src_port = c.u16be();
      p.tuple.dst_port = c.u16be();
      l4 = kUdpHeader;
    } else if (proto == 1) {
      p.tuple.protocol = net::Protocol::Icmp;
      l4 = kIcmpHeader;
    } else {
      ++result.skipped_protocol;
      continue;
    }

    const std::size_t header_bytes = ihl + l4;
    p.payload_bytes = total_len > header_bytes
                          ? static_cast<std::uint16_t>(total_len - header_bytes)
                          : 0;
    ++result.packet_count;
    on_packet(p);
  }
}

}  // namespace

PcapReadResult read_pcap(std::istream& in) {
  PcapReadResult result;
  parse_pcap_stream(in, result,
                    [&](const net::PacketRecord& p) { result.packets.push_back(p); });
  return result;
}

PcapReadResult stream_pcap(std::istream& in, features::PacketSink& sink,
                           std::size_t max_batch) {
  PcapReadResult result;
  features::BatchingAdapter batches(sink, max_batch);
  parse_pcap_stream(in, result, [&](const net::PacketRecord& p) { batches.push(p); });
  batches.finish();
  return result;
}

PcapReadResult stream_pcap_recovering(std::istream& in, features::PacketSink& sink,
                                      std::size_t max_batch) {
  PcapReadResult result;
  features::BatchingAdapter batches(sink, max_batch);
  parse_pcap_stream(in, result, [&](const net::PacketRecord& p) { batches.push(p); },
                    /*recover=*/true);
  batches.finish();  // the pre-fault tail still reaches the sink
  return result;
}

}  // namespace monohids::trace
