#include "loadgen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "common.hpp"

namespace e2e {

using monohids::net::Ipv4Address;
using monohids::net::PacketRecord;
using monohids::net::Protocol;
using monohids::net::TcpFlags;

namespace {

constexpr std::uint64_t kMs = 1000;
constexpr std::uint64_t kSecond = 1000 * kMs;
constexpr std::uint64_t kMinute = 60 * kSecond;
constexpr std::uint64_t kHour = 60 * kMinute;
constexpr std::uint64_t kDay = 24 * kHour;
constexpr std::uint64_t kWeek = 7 * kDay;

constexpr std::uint16_t kMss = 1460;
constexpr std::uint32_t kDestinations = 4000;  // Zipf-ranked server pool
constexpr double kZipfExponent = 1.05;
constexpr std::uint32_t kPeerUniverse = 30000;  // Storm's churning peer set

const Ipv4Address kResolver = Ipv4Address::from_octets(10, 10, 255, 53);
const Ipv4Address kTimeServer = Ipv4Address::from_octets(10, 10, 255, 123);
const Ipv4Address kMailServer = Ipv4Address::from_octets(10, 10, 255, 25);

/// xoshiro256** seeded through SplitMix64; private to the generator so the
/// load never depends on the library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& word : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) { return lo + below(hi - lo + 1); }
  bool chance(double p) { return uniform() < p; }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }
  /// Number of failures before the first success.
  std::uint64_t geometric(double p) {
    return static_cast<std::uint64_t>(std::floor(std::log1p(-uniform()) / std::log1p(-p)));
  }
  std::uint64_t poisson(double mean) {
    if (mean > 30.0) {
      const double normal = std::sqrt(-2.0 * std::log1p(-uniform())) *
                            std::cos(2.0 * 3.141592653589793 * uniform());
      return static_cast<std::uint64_t>(std::max(0.0, std::round(mean + std::sqrt(mean) * normal)));
    }
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    for (double p = uniform(); p > limit; p *= uniform()) ++k;
    return k;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::array<std::uint64_t, 4> s_{};
};

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Relative session rate at `t`: a working-day peak, an evening bump, a
/// night floor, and damped weekends.
double activity(std::uint64_t t) {
  const double hour = static_cast<double>(t % kDay) / static_cast<double>(kHour);
  const double work = (hour - 13.5) / 3.2;
  const double evening = (hour - 21.0) / 1.3;
  double a = 0.04 + 0.96 * std::exp(-0.5 * work * work) + 0.3 * std::exp(-0.5 * evening * evening);
  if ((t / kDay) % 7 >= 5) a *= 0.3;
  return a;
}

struct Pending {
  PacketRecord packet;
  bool storm = false;
};

/// Session synthesis. Sessions append packets (any timestamps at or after
/// their start) to `pending`; the driver loop releases them in time order.
class Synth {
 public:
  explicit Synth(const LoadConfig& config) : config_(config), rng_(config.seed) {
    const std::uint64_t salt = mix64(config.seed ^ 0x5eedULL);
    double total = 0.0;
    zipf_cdf_.reserve(kDestinations);
    for (std::uint32_t rank = 1; rank <= kDestinations; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    servers_.reserve(kDestinations);
    for (std::uint32_t i = 0; i < kDestinations; ++i) {
      // Public unicast range 32.0.0.0/3; rank 1 is the most popular.
      servers_.push_back(Ipv4Address(0x20000000u | static_cast<std::uint32_t>(
                                                      mix64(salt + i) & 0x1FFFFFFFu)));
      rtt_us_.push_back(4 * kMs + mix64(salt ^ (i * 7919ULL)) % (90 * kMs));
    }
  }

  std::vector<Pending> pending;
  LoadShape shape;

  void benign_sessions(std::uint64_t hour_start) {
    for (std::uint64_t m = 0; m < 60; ++m) {
      const std::uint64_t minute = hour_start + m * kMinute;
      const double mean = config_.sessions_per_hour / 60.0 * activity(minute);
      const std::uint64_t n = rng_.poisson(mean);
      for (std::uint64_t i = 0; i < n; ++i) session(minute + rng_.below(kMinute));
    }
    // NTP-style poll every ~17 minutes: each one re-contacts the same
    // server after far longer than the UDP idle timeout.
    while (next_ntp_ < hour_start + kHour) {
      udp_exchange(next_ntp_, kTimeServer, 123, 123, 48, 48, 2 * kMs);
      ++shape.idle_gaps;
      next_ntp_ += 16 * kMinute + rng_.below(2 * kMinute);
    }
  }

  void storm(std::uint64_t hour_start) {
    const StormLoad& s = config_.storm;
    const std::uint64_t week = hour_start / kWeek;
    if (week < s.first_week || week >= s.end_week) return;
    storm_ = true;
    for (std::uint64_t m = 0; m < 60; ++m) {
      const std::uint64_t minute = hour_start + m * kMinute;
      const std::uint64_t probes = rng_.poisson(s.p2p_probes_per_minute);
      for (std::uint64_t i = 0; i < probes; ++i) p2p_probe(minute + rng_.below(kMinute));
    }
    if (hour_start % kDay == 0) plan_waves(hour_start);
    for (const auto& [begin, end] : waves_) {
      const std::uint64_t lo = std::max(begin, hour_start);
      const std::uint64_t hi = std::min(end, hour_start + kHour);
      if (lo >= hi) continue;
      const double per_us = s.spam_relays_per_minute / static_cast<double>(kMinute);
      for (double t = static_cast<double>(lo) + rng_.exponential(1.0 / per_us);
           t < static_cast<double>(hi); t += rng_.exponential(1.0 / per_us)) {
        spam_relay(static_cast<std::uint64_t>(t));
      }
      // MX lookups backing the wave.
      for (std::uint64_t t = lo; t < hi; t += 12 * kSecond) {
        udp_exchange(t, kResolver, ephemeral(), 53, 36, 180, 3 * kMs);
      }
    }
    storm_ = false;
  }

 private:
  void add(std::uint64_t t, Ipv4Address src, Ipv4Address dst, std::uint16_t sport,
           std::uint16_t dport, Protocol proto, TcpFlags flags, std::uint16_t payload) {
    PacketRecord p;
    p.timestamp = t;
    p.tuple = {src, dst, sport, dport, proto};
    p.tcp_flags = flags;
    p.payload_bytes = payload;
    pending.push_back({p, storm_});
  }

  std::uint16_t ephemeral() {
    port_ = static_cast<std::uint16_t>(port_ == 65535 ? 49152 : port_ + 1);
    return port_;
  }

  std::uint32_t zipf_rank() {
    const double u = rng_.uniform();
    return static_cast<std::uint32_t>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin()) %
           kDestinations;
  }

  void udp_exchange(std::uint64_t t, Ipv4Address server, std::uint16_t sport,
                    std::uint16_t dport, std::uint16_t request, std::uint16_t reply,
                    std::uint64_t rtt) {
    const Ipv4Address host = config_.host;
    add(t, host, server, sport, dport, Protocol::Udp, TcpFlags::None, request);
    add(t + rtt, server, host, dport, sport, Protocol::Udp, TcpFlags::None, reply);
  }

  /// One TCP connection from the host: handshake, request, `segments`
  /// response segments (the last one partial) with delayed ACKs, then a FIN
  /// exchange, a server RST, or — when `idle_out` — no teardown at all, so
  /// the flow table must time it out. Returns the time of the last packet.
  std::uint64_t tcp_connection(std::uint64_t t, Ipv4Address server, std::uint16_t dport,
                               std::uint64_t rtt, std::uint64_t segments, bool idle_out) {
    const Ipv4Address host = config_.host;
    const std::uint16_t sport = ephemeral();
    const auto ack = TcpFlags::Ack;
    const auto psh = TcpFlags::Psh | TcpFlags::Ack;
    add(t, host, server, sport, dport, Protocol::Tcp, TcpFlags::Syn, 0);
    t += rtt;
    add(t, server, host, dport, sport, Protocol::Tcp, TcpFlags::Syn | TcpFlags::Ack, 0);
    t += 200;
    add(t, host, server, sport, dport, Protocol::Tcp, ack, 0);
    add(t + 50, host, server, sport, dport, Protocol::Tcp, psh,
        static_cast<std::uint16_t>(rng_.between(180, 720)));
    t += 50 + rtt;
    const auto tail = static_cast<std::uint16_t>(rng_.between(40, kMss));
    for (std::uint64_t i = 0; i < segments; ++i) {
      t += rng_.between(60, 600);
      add(t, server, host, dport, sport, Protocol::Tcp, i + 1 == segments ? psh : ack,
          i + 1 == segments ? tail : kMss);
      if (i % 2 == 1 || i + 1 == segments) {
        add(t + 40, host, server, sport, dport, Protocol::Tcp, ack, 0);
      }
    }
    t += rng_.between(5 * kMs, 2 * kSecond);
    if (idle_out) {
      ++shape.idle_gaps;
      return t;
    }
    if (rng_.chance(0.05)) {
      add(t, server, host, dport, sport, Protocol::Tcp, TcpFlags::Rst, 0);
      return t;
    }
    add(t, host, server, sport, dport, Protocol::Tcp, TcpFlags::Fin | TcpFlags::Ack, 0);
    add(t + rtt, server, host, dport, sport, Protocol::Tcp, TcpFlags::Fin | TcpFlags::Ack, 0);
    add(t + rtt + 100, host, server, sport, dport, Protocol::Tcp, ack, 0);
    return t + rtt + 100;
  }

  /// Heavy-tailed object size in MSS segments (most objects fit in one or
  /// two; a few are large).
  std::uint64_t object_segments() {
    const double pareto = 1.0 / std::pow(1.0 - rng_.uniform(), 1.0 / 2.2);
    return std::min<std::uint64_t>(100, static_cast<std::uint64_t>(pareto));
  }

  void session(std::uint64_t t) {
    ++shape.sessions;
    const Ipv4Address host = config_.host;
    const double kind = rng_.uniform();
    if (kind < 0.45) {  // web: name lookup, then parallel object fetches
      const std::uint32_t rank = zipf_rank();
      udp_exchange(t, kResolver, ephemeral(), 53, 32 + rank % 20, 120 + rank % 90,
                   1 * kMs + rank % 3 * kMs);
      const std::uint64_t connections = 1 + rng_.geometric(0.55);
      const std::uint16_t port = rng_.chance(0.7) ? 443 : 80;
      for (std::uint64_t c = 0; c < connections; ++c) {
        const std::uint64_t objects = 1 + rng_.geometric(0.6);
        std::uint64_t segments = 0;
        for (std::uint64_t o = 0; o < objects; ++o) segments += object_segments();
        tcp_connection(t + 20 * kMs + c * 35 * kMs, servers_[rank], port, rtt_us_[rank],
                       segments, rng_.chance(0.02));
      }
    } else if (kind < 0.65) {  // stand-alone DNS lookups
      const std::uint64_t queries = 1 + rng_.geometric(0.5);
      for (std::uint64_t q = 0; q < queries; ++q) {
        udp_exchange(t + q * 150 * kMs, kResolver, ephemeral(), 53, 30 + q % 25, 90 + q % 150,
                     2 * kMs);
      }
    } else if (kind < 0.70) {  // mail sync
      tcp_connection(t, kMailServer, 993, 2 * kMs, rng_.between(1, 12), false);
    } else if (kind < 0.73) {  // interactive shell: sparse keystrokes, long pauses
      interactive(t);
    } else if (kind < 0.732) {  // bulk software update
      const std::uint32_t rank = zipf_rank() % 16;
      tcp_connection(t, servers_[rank], 443, rtt_us_[rank], rng_.between(50, 400), false);
    } else if (kind < 0.85) {  // other UDP (media, games, discovery)
      const std::uint32_t rank = zipf_rank();
      const auto dport = static_cast<std::uint16_t>(3478 + rank % 2000);
      const std::uint16_t sport = ephemeral();
      const std::uint64_t datagrams = 1 + rng_.geometric(0.3);
      for (std::uint64_t d = 0; d < datagrams; ++d) {
        udp_exchange(t + d * 400 * kMs, servers_[rank], sport, dport,
                     static_cast<std::uint16_t>(rng_.between(20, 1200)),
                     static_cast<std::uint16_t>(rng_.between(20, 1200)), rtt_us_[rank]);
      }
    } else if (kind < 0.92) {  // ping
      const std::uint32_t rank = zipf_rank();
      const std::uint64_t echoes = 1 + rng_.below(4);
      for (std::uint64_t e = 0; e < echoes; ++e) {
        const std::uint64_t at = t + e * kSecond;
        add(at, host, servers_[rank], 0, 0, Protocol::Icmp, TcpFlags::None, 56);
        add(at + rtt_us_[rank], servers_[rank], host, 0, 0, Protocol::Icmp, TcpFlags::None, 56);
      }
    } else {  // inbound probe against a closed port, refused
      const Ipv4Address scanner(0xC0000000u | static_cast<std::uint32_t>(rng_.next() & 0xFFFFFFu));
      const auto sport = static_cast<std::uint16_t>(rng_.between(1024, 65535));
      const std::uint16_t dport = rng_.chance(0.5) ? 445 : 3389;
      add(t, scanner, host, sport, dport, Protocol::Tcp, TcpFlags::Syn, 0);
      add(t + 150, host, scanner, dport, sport, Protocol::Tcp, TcpFlags::Rst | TcpFlags::Ack, 0);
    }
  }

  void interactive(std::uint64_t t) {
    const Ipv4Address host = config_.host;
    const std::uint32_t rank = zipf_rank() % 64;
    const Ipv4Address server = servers_[rank];
    const std::uint64_t rtt = rtt_us_[rank];
    const std::uint16_t sport = ephemeral();
    add(t, host, server, sport, 22, Protocol::Tcp, TcpFlags::Syn, 0);
    add(t + rtt, server, host, 22, sport, Protocol::Tcp, TcpFlags::Syn | TcpFlags::Ack, 0);
    add(t + rtt + 200, host, server, sport, 22, Protocol::Tcp, TcpFlags::Ack, 0);
    t += rtt + 200;
    const std::uint64_t bursts = 3 + rng_.below(20);
    for (std::uint64_t b = 0; b < bursts; ++b) {
      // One pause in five outlasts the 5-minute TCP idle timeout; the flow
      // table ends the connection and the later segments arrive as strays.
      const bool long_pause = rng_.chance(0.2);
      if (long_pause) ++shape.idle_gaps;
      t += long_pause ? rng_.between(6 * kMinute, 12 * kMinute) : rng_.between(kSecond, kMinute);
      const std::uint64_t keys = 1 + rng_.below(12);
      for (std::uint64_t k = 0; k < keys; ++k) {
        t += rng_.between(80 * kMs, 400 * kMs);
        add(t, host, server, sport, 22, Protocol::Tcp, TcpFlags::Psh | TcpFlags::Ack, 48);
        add(t + rtt, server, host, 22, sport, Protocol::Tcp, TcpFlags::Psh | TcpFlags::Ack, 48);
      }
    }
    add(t + kSecond, host, server, sport, 22, Protocol::Tcp, TcpFlags::Fin | TcpFlags::Ack, 0);
    add(t + kSecond + rtt, server, host, 22, sport, Protocol::Tcp,
        TcpFlags::Fin | TcpFlags::Ack, 0);
    add(t + kSecond + rtt + 100, host, server, sport, 22, Protocol::Tcp, TcpFlags::Ack, 0);
  }

  void p2p_probe(std::uint64_t t) {
    const auto peer = static_cast<std::uint32_t>(rng_.below(kPeerUniverse));
    const std::uint64_t h = mix64(config_.seed * 31 + peer);
    const Ipv4Address ip(0x40000000u | static_cast<std::uint32_t>(h & 0x3FFFFFFFu));
    const auto dport = static_cast<std::uint16_t>(1024 + (h >> 32) % 64000);
    const Ipv4Address host = config_.host;
    add(t, host, ip, 7871, dport, Protocol::Udp, TcpFlags::None,
        static_cast<std::uint16_t>(rng_.between(25, 60)));
    if (rng_.chance(config_.storm.p2p_reply_share)) {
      add(t + rng_.between(40 * kMs, 400 * kMs), ip, host, dport, 7871, Protocol::Udp,
          TcpFlags::None, static_cast<std::uint16_t>(rng_.between(25, 400)));
    }
  }

  void spam_relay(std::uint64_t t) {
    const Ipv4Address mx(0x60000000u | static_cast<std::uint32_t>(rng_.next() & 0x1FFFFFFFu));
    if (rng_.chance(config_.storm.spam_unanswered_share)) {
      // Dead relay: the SYN and one retransmission, then silence until the
      // idle timeout reaps the half-open flow.
      const std::uint16_t sport = ephemeral();
      add(t, config_.host, mx, sport, 25, Protocol::Tcp, TcpFlags::Syn, 0);
      add(t + 3 * kSecond, config_.host, mx, sport, 25, Protocol::Tcp, TcpFlags::Syn, 0);
      return;
    }
    tcp_connection(t, mx, 25, rng_.between(20 * kMs, 200 * kMs), 1, false);
  }

  void plan_waves(std::uint64_t day_start) {
    waves_.clear();
    const StormLoad& s = config_.storm;
    const auto length = static_cast<std::uint64_t>(s.spam_wave_minutes * kMinute);
    for (std::uint32_t w = 0; w < s.spam_waves_per_day; ++w) {
      const std::uint64_t begin = day_start + rng_.below(kDay - std::min(length, kDay - 1));
      waves_.emplace_back(begin, begin + length);
    }
  }

  const LoadConfig& config_;
  Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<Ipv4Address> servers_;
  std::vector<std::uint64_t> rtt_us_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> waves_;
  std::uint64_t next_ntp_ = 7 * kMinute;
  std::uint16_t port_ = 49151;
  bool storm_ = false;
};

void put16be(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v >> 8);
  p[1] = static_cast<unsigned char>(v);
}
void put32be(unsigned char* p, std::uint32_t v) {
  put16be(p, static_cast<std::uint16_t>(v >> 16));
  put16be(p + 2, static_cast<std::uint16_t>(v));
}
void put32le(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t sum16(const unsigned char* p, std::size_t n, std::uint32_t sum) {
  for (std::size_t i = 0; i + 1 < n; i += 2) sum += static_cast<std::uint32_t>(p[i] << 8 | p[i + 1]);
  return sum;
}
std::uint16_t fold(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Classic pcap writer: pcap_hdr_s once, then pcaprec_hdr_s plus frame per
/// packet, all buffered and digested as written.
class PcapWriter {
 public:
  explicit PcapWriter(const std::string& path) : out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot create " + path);
    unsigned char header[24] = {};
    put32le(header, 0xa1b2c3d4);  // microsecond timestamps
    header[4] = 2;                // version 2.4
    header[6] = 4;
    put32le(header + 16, 65535);  // snaplen
    put32le(header + 20, 1);      // LINKTYPE_ETHERNET
    write(header, sizeof header);
  }

  void packet(const PacketRecord& p) {
    const std::size_t l4 = p.tuple.protocol == Protocol::Tcp ? 20 : 8;
    const std::size_t frame = 14 + 20 + l4 + p.payload_bytes;
    unsigned char h[16 + 14 + 20 + 20] = {};
    put32le(h, static_cast<std::uint32_t>(p.timestamp / kSecond));
    put32le(h + 4, static_cast<std::uint32_t>(p.timestamp % kSecond));
    put32le(h + 8, static_cast<std::uint32_t>(frame));
    put32le(h + 12, static_cast<std::uint32_t>(frame));
    unsigned char* eth = h + 16;
    eth[0] = 0x02;
    put32be(eth + 2, p.tuple.dst_ip.value());
    eth[6] = 0x02;
    put32be(eth + 8, p.tuple.src_ip.value());
    put16be(eth + 12, 0x0800);
    unsigned char* ip = eth + 14;
    const auto ip_total = static_cast<std::uint16_t>(20 + l4 + p.payload_bytes);
    ip[0] = 0x45;
    put16be(ip + 2, ip_total);
    put16be(ip + 4, ip_id_++);
    put16be(ip + 6, 0x4000);
    ip[8] = 64;
    ip[9] = static_cast<unsigned char>(p.tuple.protocol);
    put32be(ip + 12, p.tuple.src_ip.value());
    put32be(ip + 16, p.tuple.dst_ip.value());
    put16be(ip + 10, fold(sum16(ip, 20, 0)));
    unsigned char* l4h = ip + 20;
    const auto segment = static_cast<std::uint32_t>(l4 + p.payload_bytes);
    // Payload bytes are zero, so they add nothing to a checksum beyond the
    // segment length in the pseudo-header.
    const std::uint32_t pseudo = (p.tuple.src_ip.value() >> 16) + (p.tuple.src_ip.value() & 0xFFFF) +
                                 (p.tuple.dst_ip.value() >> 16) + (p.tuple.dst_ip.value() & 0xFFFF) +
                                 static_cast<std::uint32_t>(p.tuple.protocol) + segment;
    switch (p.tuple.protocol) {
      case Protocol::Tcp:
        put16be(l4h, p.tuple.src_port);
        put16be(l4h + 2, p.tuple.dst_port);
        put32be(l4h + 4, seq_ += 1 + p.payload_bytes);
        l4h[12] = 0x50;
        l4h[13] = static_cast<unsigned char>(p.tcp_flags);
        put16be(l4h + 14, 65535);
        put16be(l4h + 16, fold(sum16(l4h, 20, pseudo)));
        break;
      case Protocol::Udp: {
        put16be(l4h, p.tuple.src_port);
        put16be(l4h + 2, p.tuple.dst_port);
        put16be(l4h + 4, static_cast<std::uint16_t>(segment));
        const std::uint16_t c = fold(sum16(l4h, 8, pseudo));
        put16be(l4h + 6, c == 0 ? 0xFFFF : c);
        break;
      }
      case Protocol::Icmp:
        l4h[0] = p.tuple.src_ip.octet(0) == 10 ? 8 : 0;  // echo request out, reply in
        put16be(l4h + 6, static_cast<std::uint16_t>(ip_id_));
        put16be(l4h + 2, fold(sum16(l4h, 8, 0)));
        break;
    }
    write(h, 16 + 14 + 20 + l4);
    write_zeros(p.payload_bytes);
  }

  /// Flushes and returns (bytes written, FNV-1a digest).
  std::pair<std::uint64_t, std::uint64_t> close() {
    flush();
    out_.close();
    if (!out_) throw std::runtime_error("pcap write failed");
    return {bytes_, fnv_.digest()};
  }

 private:
  void write(const unsigned char* data, std::size_t n) {
    if (used_ + n > buffer_.size()) flush();
    std::memcpy(buffer_.data() + used_, data, n);
    used_ += n;
  }
  void write_zeros(std::size_t n) {
    if (used_ + n > buffer_.size()) flush();
    std::memset(buffer_.data() + used_, 0, n);
    used_ += n;
  }
  void flush() {
    fnv_.update(buffer_.data(), used_);
    out_.write(reinterpret_cast<const char*>(buffer_.data()), static_cast<std::streamsize>(used_));
    bytes_ += used_;
    used_ = 0;
  }

  static constexpr std::size_t kBuffer = 1 << 20;
  std::ofstream out_;
  std::vector<unsigned char> buffer_ = std::vector<unsigned char>(kBuffer);
  std::size_t used_ = 0;
  Fnv1a fnv_;
  std::uint64_t bytes_ = 0;
  std::uint16_t ip_id_ = 1;
  std::uint32_t seq_ = 1;
};

/// Adds one record to `fnv` in the canonical little-endian 24-byte layout
/// (timestamp, src, dst, ports, protocol, flags, payload length).
void digest_record(Fnv1a& fnv, const PacketRecord& packet) {
  unsigned char b[24] = {};
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(packet.timestamp >> (8 * i));
  put32le(b + 8, packet.tuple.src_ip.value());
  put32le(b + 12, packet.tuple.dst_ip.value());
  b[16] = static_cast<unsigned char>(packet.tuple.src_port);
  b[17] = static_cast<unsigned char>(packet.tuple.src_port >> 8);
  b[18] = static_cast<unsigned char>(packet.tuple.dst_port);
  b[19] = static_cast<unsigned char>(packet.tuple.dst_port >> 8);
  b[20] = static_cast<unsigned char>(packet.tuple.protocol);
  b[21] = static_cast<unsigned char>(packet.tcp_flags);
  b[22] = static_cast<unsigned char>(packet.payload_bytes);
  b[23] = static_cast<unsigned char>(packet.payload_bytes >> 8);
  fnv.update(b, sizeof b);
}

}  // namespace

std::uint64_t LoadConfig::horizon_us() const { return weeks * kWeek; }
std::uint64_t LoadConfig::storm_onset_us() const { return storm.first_week * kWeek; }


LoadShape generate_load(const LoadConfig& config,
                        const std::function<void(const PacketRecord&)>& emit) {
  Synth synth(config);
  Fnv1a fnv;
  const std::uint64_t horizon = config.horizon_us();
  auto release = [&](std::uint64_t watermark) {
    auto& pending = synth.pending;
    std::stable_sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
      return a.packet.timestamp < b.packet.timestamp;
    });
    std::size_t n = 0;
    for (; n < pending.size() && pending[n].packet.timestamp < watermark; ++n) {
      const Pending& item = pending[n];
      if (item.packet.timestamp >= horizon) continue;  // spilled past the capture end
      LoadShape& s = synth.shape;
      const PacketRecord& p = item.packet;
      ++s.packets;
      s.payload_bytes += p.payload_bytes;
      s.storm_packets += item.storm;
      s.tcp += p.tuple.protocol == Protocol::Tcp;
      s.udp += p.tuple.protocol == Protocol::Udp;
      s.icmp += p.tuple.protocol == Protocol::Icmp;
      s.syn += p.tuple.protocol == Protocol::Tcp && p.tcp_flags == TcpFlags::Syn;
      digest_record(fnv, p);
      emit(p);
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(n));
  };
  for (std::uint64_t hour = 0; hour < horizon; hour += kHour) {
    synth.benign_sessions(hour);
    synth.storm(hour);
    release(hour + kHour);
  }
  release(~std::uint64_t{0});
  synth.shape.stream_digest = fnv.digest();
  return synth.shape;
}

std::vector<PacketRecord> generate_stream(const LoadConfig& config, LoadShape& shape) {
  std::vector<PacketRecord> packets;
  shape = generate_load(config, [&](const PacketRecord& p) { packets.push_back(p); });
  return packets;
}

LoadShape write_pcap_file(const LoadConfig& config, const std::string& path) {
  PcapWriter writer(path);
  LoadShape shape = generate_load(config, [&](const PacketRecord& p) { writer.packet(p); });
  std::tie(shape.file_bytes, shape.file_digest) = writer.close();
  return shape;
}

}  // namespace e2e
