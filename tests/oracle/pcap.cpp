#include "oracle/pcap.hpp"

#include <array>
#include <istream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace monohids::oracle {

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

}  // namespace

trace::PcapReadResult parse_pcap_seed(std::istream& in, bool recover) {
  trace::PcapReadResult result;
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
    try {
      ts_frac = read_u32(in, swapped, ok);
      incl_len = read_u32(in, swapped, ok);
      (void)read_u32(in, swapped, ok);  // orig_len
      MONOHIDS_ENSURE(ok, "truncated pcap record header");
      MONOHIDS_ENSURE(incl_len <= 10 * 1024 * 1024, "implausible pcap record length");
      MONOHIDS_ENSURE(incl_len <= snaplen, "pcap record longer than snaplen");

      frame.resize(incl_len);
      in.read(reinterpret_cast<char*>(frame.data()), incl_len);
      MONOHIDS_ENSURE(static_cast<bool>(in), "truncated pcap record body");
    } catch (const InputError& e) {
      if (!recover) throw;
      result.stream_error = e.what();
      return result;
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
    result.packets.push_back(p);
  }
  return result;
}

}  // namespace monohids::oracle
