#include "trace/apps.hpp"

#include <algorithm>

#include "net/classify.hpp"
#include "trace/v2_contract.hpp"
#include "util/error.hpp"

namespace monohids::trace {

std::string_view name_of(AppKind a) noexcept {
  switch (a) {
    case AppKind::Web: return "web";
    case AppKind::Dns: return "dns";
    case AppKind::Mail: return "mail";
    case AppKind::P2p: return "p2p";
    case AppKind::Interactive: return "interactive";
    case AppKind::Update: return "update";
  }
  return "unknown";
}

namespace {

using net::FiveTuple;
using net::PacketRecord;
using net::Protocol;
using net::TcpFlags;

/// Zipf-ish pick: squares a uniform draw so low indices are favored, giving
/// a popular-head / long-tail destination mix without a per-call Zipf table.
net::Ipv4Address pick_weighted(const std::vector<net::Ipv4Address>& pool,
                               detail::V2PacketDraws& rng) {
  MONOHIDS_EXPECT(!pool.empty(), "destination pool is empty");
  const double u = rng.uniform01();
  const auto idx = static_cast<std::size_t>(u * u * static_cast<double>(pool.size()));
  return pool[std::min(idx, pool.size() - 1)];
}

/// SYN retransmissions for the next of `connections_left` connections: the
/// session's remaining budget spread evenly, so it is used up exactly. One
/// per connection (the first ones) whenever the budget fits.
std::uint32_t next_retransmissions(std::uint32_t& extra_syns, std::uint32_t connections_left) {
  const std::uint32_t retrans = (extra_syns + connections_left - 1) / connections_left;
  extra_syns -= retrans;
  return retrans;
}

/// Emits a full TCP connection: SYN / SYN-ACK / ACK, optional data, FIN in
/// both directions. `extra_syns` prepends SYN retransmissions.
void emit_tcp_connection(util::Timestamp start, net::Ipv4Address src, net::Ipv4Address dst,
                         std::uint16_t dst_port, std::uint32_t extra_syns,
                         detail::V2PacketDraws& rng, std::vector<PacketRecord>& out) {
  const std::uint16_t sport = rng.ephemeral_port(Protocol::Tcp);
  const FiveTuple fwd{src, dst, sport, dst_port, Protocol::Tcp};
  const FiveTuple rev = fwd.reversed();
  util::Timestamp t = start;

  for (std::uint32_t i = 0; i < extra_syns; ++i) {
    out.push_back({t, fwd, TcpFlags::Syn, 0});
    t += 3 * util::kMicrosPerSecond;  // retransmission timer
  }
  out.push_back({t, fwd, TcpFlags::Syn, 0});
  t += 20'000;  // ~20 ms RTT
  out.push_back({t, rev, TcpFlags::Syn | TcpFlags::Ack, 0});
  t += 20'000;
  out.push_back({t, fwd, TcpFlags::Ack, 0});
  // a short request/response exchange
  t += 5'000;
  out.push_back({t, fwd, TcpFlags::Ack | TcpFlags::Psh, 400});
  t += 30'000;
  out.push_back({t, rev, TcpFlags::Ack | TcpFlags::Psh, 1400});
  // graceful close
  t += 50'000;
  out.push_back({t, fwd, TcpFlags::Fin | TcpFlags::Ack, 0});
  t += 20'000;
  out.push_back({t, rev, TcpFlags::Fin | TcpFlags::Ack, 0});
  t += 20'000;
  out.push_back({t, fwd, TcpFlags::Ack, 0});
}

/// Emits a UDP request/response pair (DNS lookup or P2P probe).
void emit_udp_exchange(util::Timestamp start, net::Ipv4Address src, net::Ipv4Address dst,
                       std::uint16_t dst_port, detail::V2PacketDraws& rng,
                       std::vector<PacketRecord>& out) {
  const std::uint16_t sport = rng.ephemeral_port(Protocol::Udp);
  const FiveTuple fwd{src, dst, sport, dst_port, Protocol::Udp};
  out.push_back({start, fwd, TcpFlags::None, 64});
  out.push_back({start + 15'000, fwd.reversed(), TcpFlags::None, 128});
}

}  // namespace

void emit_session_packets(AppKind kind, const SessionFootprint& footprint,
                          util::Timestamp start, net::Ipv4Address src,
                          const DestinationPools& pools, detail::V2PacketDraws& rng,
                          std::vector<net::PacketRecord>& out) {
  util::Timestamp t = start;

  // DNS lookups first (they precede the connections they resolve).
  for (std::uint32_t i = 0; i < footprint.dns_connections; ++i) {
    emit_udp_exchange(t, src, pools.dns_server, net::ports::kDns, rng, out);
    t += 30'000 + rng.uniform_int(0, 50'000);
  }

  switch (kind) {
    case AppKind::Web: {
      // http objects to port 80, the rest to 443, spread over the page load.
      std::uint32_t remaining_http = footprint.http_connections;
      std::uint32_t extra_syns = footprint.syn_packets - footprint.tcp_connections;
      for (std::uint32_t i = 0; i < footprint.tcp_connections; ++i) {
        const net::Ipv4Address dst = pick_weighted(pools.web_servers, rng);
        const bool is_http = remaining_http > 0;
        if (is_http) --remaining_http;
        // Spread the sampled retransmission budget over the connections so
        // the rendered SYN count matches the footprint exactly.
        const std::uint32_t retrans =
            next_retransmissions(extra_syns, footprint.tcp_connections - i);
        emit_tcp_connection(t, src, dst,
                            is_http ? net::ports::kHttp : net::ports::kHttps, retrans, rng,
                            out);
        t += 10'000 + rng.uniform_int(0, 120'000);
      }
      break;
    }
    case AppKind::Dns:
      break;  // lookups already emitted
    case AppKind::Mail:
      emit_tcp_connection(t, src, pools.mail_server, 993, 0, rng, out);
      break;
    case AppKind::P2p: {
      for (std::uint32_t i = 0; i < footprint.udp_connections - footprint.dns_connections;
           ++i) {
        const net::Ipv4Address dst = pick_weighted(pools.peer_pool, rng);
        emit_udp_exchange(t, src, dst,
                          static_cast<std::uint16_t>(rng.uniform_int(10'000, 40'000)), rng,
                          out);
        t += 2'000 + rng.uniform_int(0, 20'000);
      }
      break;
    }
    case AppKind::Interactive: {
      const net::Ipv4Address dst = pick_weighted(pools.peer_pool, rng);
      emit_tcp_connection(t, src, dst, 5222, 0, rng, out);
      break;
    }
    case AppKind::Update: {
      std::uint32_t extra_syns = footprint.syn_packets - footprint.tcp_connections;
      // all fetches hit at most two CDN hosts
      const net::Ipv4Address cdn_a = pick_weighted(pools.web_servers, rng);
      const net::Ipv4Address cdn_b = pick_weighted(pools.web_servers, rng);
      for (std::uint32_t i = 0; i < footprint.tcp_connections; ++i) {
        const std::uint32_t retrans =
            next_retransmissions(extra_syns, footprint.tcp_connections - i);
        emit_tcp_connection(t, src, (i % 2 == 0) ? cdn_a : cdn_b, net::ports::kHttps,
                            retrans, rng, out);
        t += 5'000 + rng.uniform_int(0, 40'000);
      }
      break;
    }
  }
}

}  // namespace monohids::trace
