#include "trace/pcap.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>

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

std::uint32_t read_u32(std::istream& in, bool swapped, bool& ok) {
  std::array<unsigned char, 4> b{};
  in.read(reinterpret_cast<char*>(b.data()), 4);
  ok = static_cast<bool>(in);
  if (!ok) return 0;
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
  bool ok = false;
  const std::uint32_t magic = read_u32(in, /*swapped=*/false, ok);
  MONOHIDS_ENSURE(ok, "pcap stream is empty");
  bool swapped = false;
  switch (magic) {
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

  (void)read_u32(in, swapped, ok);  // version
  (void)read_u32(in, swapped, ok);  // thiszone
  (void)read_u32(in, swapped, ok);  // sigfigs
  const std::uint32_t snaplen = read_u32(in, swapped, ok);
  const std::uint32_t linktype = read_u32(in, swapped, ok);
  MONOHIDS_ENSURE(ok, "truncated pcap global header");
  MONOHIDS_ENSURE(linktype == kLinktypeEthernet,
                  "unsupported pcap linktype " + std::to_string(linktype) +
                      " (only Ethernet is supported)");

  std::vector<std::uint8_t> frame;
  while (true) {
    const std::uint32_t ts_sec = read_u32(in, swapped, ok);
    if (!ok) break;  // clean EOF
    std::uint32_t ts_frac = 0;
    std::uint32_t incl_len = 0;
    std::uint32_t orig_len = 0;
    try {
      ts_frac = read_u32(in, swapped, ok);
      incl_len = read_u32(in, swapped, ok);
      orig_len = read_u32(in, swapped, ok);
      MONOHIDS_ENSURE(ok, "truncated pcap record header");
      MONOHIDS_ENSURE(incl_len <= 10 * 1024 * 1024, "implausible pcap record length");
      MONOHIDS_ENSURE(incl_len <= snaplen, "pcap record longer than snaplen");

      frame.resize(incl_len);
      in.read(reinterpret_cast<char*>(frame.data()), incl_len);
      MONOHIDS_ENSURE(static_cast<bool>(in), "truncated pcap record body");
    } catch (const InputError& e) {
      if (!recover) throw;
      result.stream_error = e.what();
      return;
    }

    Cursor c{frame.data(), frame.size()};
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
    if ((version_ihl >> 4) != 4) {
      ++result.skipped_non_ipv4;
      continue;
    }
    const std::size_t ihl = static_cast<std::size_t>(version_ihl & 0x0F) * 4;
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
    (void)orig_len;
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
