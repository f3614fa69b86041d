#include "trace/apps.hpp"

#include <algorithm>
#include <cmath>

#include "net/classify.hpp"
#include "stats/sampling.hpp"
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

/// Pareto-distributed object count with a floor of 1 and a cap; heavy tails
/// here are what make per-user bin-count distributions heavy-tailed.
std::uint32_t pareto_count(util::Xoshiro256& rng, double shape, std::uint32_t cap) {
  const stats::ParetoSampler pareto(1.0, shape);
  const double v = pareto.sample(rng);
  return static_cast<std::uint32_t>(std::min<double>(v, cap));
}

}  // namespace

SessionFootprint sample_footprint(AppKind kind, util::Xoshiro256& rng) {
  SessionFootprint f;
  switch (kind) {
    case AppKind::Web: {
      // One page load: k objects over d domains; ~45% of objects go to
      // HTTPS. A few percent of connection attempts retransmit their SYN.
      const std::uint32_t objects = pareto_count(rng, 2.6, 40);
      // Resolver caching bounds per-page lookups regardless of page size.
      const std::uint32_t domains =
          1 + static_cast<std::uint32_t>(
                  stats::sample_poisson(rng, std::min<double>(objects, 12.0) / 5.0));
      std::uint32_t https = 0;
      for (std::uint32_t i = 0; i < objects; ++i) {
        if (rng.uniform01() < 0.45) ++https;
      }
      f.tcp_connections = objects;
      f.http_connections = objects - https;
      f.dns_connections = domains;
      f.syn_packets = objects;
      for (std::uint32_t i = 0; i < objects; ++i) {
        if (rng.uniform01() < 0.03) ++f.syn_packets;  // SYN retransmission
      }
      f.distinct_draws = objects + 1;  // server picks (with reuse) + resolver
      f.udp_connections = domains;     // the DNS lookups themselves are UDP
      break;
    }
    case AppKind::Dns: {
      // Background lookup burst (connectivity probe, telemetry beacon).
      const std::uint32_t lookups = 1 + static_cast<std::uint32_t>(
                                            stats::sample_poisson(rng, 0.6));
      f.dns_connections = lookups;
      f.udp_connections = lookups;
      f.distinct_draws = 1;
      break;
    }
    case AppKind::Mail: {
      // Mail poll: one TCP connection to the mail host, occasionally a DNS
      // refresh first.
      f.tcp_connections = 1;
      f.syn_packets = 1;
      if (rng.uniform01() < 0.2) {
        f.dns_connections = 1;
        f.udp_connections = 1;
      }
      f.distinct_draws = 1;
      break;
    }
    case AppKind::P2p: {
      // Peer exchange: UDP probes to a heavy-tailed number of peers.
      const std::uint32_t peers = pareto_count(rng, 1.55, 600);
      f.udp_connections = peers;
      f.distinct_draws = peers;
      break;
    }
    case AppKind::Interactive: {
      // Chat / remote shell: a single long-lived TCP connection.
      f.tcp_connections = 1;
      f.syn_packets = 1;
      if (rng.uniform01() < 0.3) {
        f.dns_connections = 1;
        f.udp_connections = 1;
      }
      f.distinct_draws = 1;
      break;
    }
    case AppKind::Update: {
      // Update burst: many TCP fetches concentrated on a couple of CDN
      // hosts — large TCP/SYN counts without many distinct destinations.
      const std::uint32_t fetches = 4 + pareto_count(rng, 2.1, 100);
      f.tcp_connections = fetches;
      f.syn_packets = fetches + static_cast<std::uint32_t>(
                                    stats::sample_poisson(rng, fetches * 0.02));
      f.dns_connections = 1;
      f.udp_connections = 1;
      f.distinct_draws = 2;
      break;
    }
  }
  return f;
}

namespace {

using net::FiveTuple;
using net::PacketRecord;
using net::Protocol;
using net::TcpFlags;

template <typename Engine>
std::uint64_t uniform_int(Engine& rng, std::uint64_t lo, std::uint64_t hi) {
  if constexpr (requires { rng.uniform_int(lo, hi); }) {
    return rng.uniform_int(lo, hi);
  } else {
    return stats::sample_uniform_int(rng, lo, hi);
  }
}

template <typename Engine>
std::uint16_t ephemeral_port(Engine& rng, Protocol protocol) {
  if constexpr (requires { rng.ephemeral_port(protocol); }) {
    return rng.ephemeral_port(protocol);
  } else {
    return static_cast<std::uint16_t>(uniform_int(rng, 49152, 65535));
  }
}

/// Zipf-ish pick: squares a uniform draw so low indices are favored, giving
/// a popular-head / long-tail destination mix without a per-call Zipf table.
template <typename Engine>
net::Ipv4Address pick_weighted(const std::vector<net::Ipv4Address>& pool, Engine& rng) {
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
template <typename Engine>
void emit_tcp_connection(util::Timestamp start, net::Ipv4Address src, net::Ipv4Address dst,
                         std::uint16_t dst_port, std::uint32_t extra_syns, Engine& rng,
                         std::vector<PacketRecord>& out) {
  const std::uint16_t sport = ephemeral_port(rng, Protocol::Tcp);
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
template <typename Engine>
void emit_udp_exchange(util::Timestamp start, net::Ipv4Address src, net::Ipv4Address dst,
                       std::uint16_t dst_port, Engine& rng, std::vector<PacketRecord>& out) {
  const std::uint16_t sport = ephemeral_port(rng, Protocol::Udp);
  const FiveTuple fwd{src, dst, sport, dst_port, Protocol::Udp};
  out.push_back({start, fwd, TcpFlags::None, 64});
  out.push_back({start + 15'000, fwd.reversed(), TcpFlags::None, 128});
}

}  // namespace

template <typename Engine>
void emit_session_packets(AppKind kind, const SessionFootprint& footprint,
                          util::Timestamp start, net::Ipv4Address src,
                          const DestinationPools& pools, Engine& rng,
                          std::vector<net::PacketRecord>& out) {
  util::Timestamp t = start;

  // DNS lookups first (they precede the connections they resolve).
  for (std::uint32_t i = 0; i < footprint.dns_connections; ++i) {
    emit_udp_exchange(t, src, pools.dns_server, net::ports::kDns, rng, out);
    t += 30'000 + uniform_int(rng, 0, 50'000);
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
        t += 10'000 + uniform_int(rng, 0, 120'000);
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
                          static_cast<std::uint16_t>(uniform_int(rng, 10'000, 40'000)), rng,
                          out);
        t += 2'000 + uniform_int(rng, 0, 20'000);
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
        t += 5'000 + uniform_int(rng, 0, 40'000);
      }
      break;
    }
  }
}

template void emit_session_packets(AppKind, const SessionFootprint&, util::Timestamp,
                                   net::Ipv4Address, const DestinationPools&,
                                   util::Xoshiro256&, std::vector<net::PacketRecord>&);
template void emit_session_packets(AppKind, const SessionFootprint&, util::Timestamp,
                                   net::Ipv4Address, const DestinationPools&,
                                   detail::V2PacketDraws&, std::vector<net::PacketRecord>&);

}  // namespace monohids::trace
