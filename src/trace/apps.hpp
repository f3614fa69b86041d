// Application session models.
//
// Each end-host behavior is a mix of six application types. A "session" is
// one user-visible action (loading a page, a mail poll, a P2P exchange...).
// A session's SessionFootprint is the increments it contributes to the five
// counted study features; emit_session_packets renders an actual packet
// exchange whose flow-table/extractor output matches that footprint exactly
// (tests/trace/test_apps.cpp). The footprints themselves are split per bin
// from the scenario contract's draws (trace/v2_packets.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace monohids::trace {

enum class AppKind : std::uint8_t {
  Web = 0,      ///< HTTP/HTTPS page loads with DNS resolution
  Dns,          ///< background name lookups (connectivity checks, telemetry)
  Mail,         ///< mail-client polls (IMAP-style long-lived TCP)
  P2p,          ///< UDP peer exchange to many distinct peers
  Interactive,  ///< chat / remote-shell style single TCP connections
  Update,       ///< software-update bursts: many TCP fetches from few CDNs
};

inline constexpr std::size_t kAppCount = 6;

inline constexpr std::array<AppKind, kAppCount> kAllApps = {
    AppKind::Web, AppKind::Dns,        AppKind::Mail,
    AppKind::P2p, AppKind::Interactive, AppKind::Update,
};

[[nodiscard]] constexpr std::size_t index_of(AppKind a) noexcept {
  return static_cast<std::size_t>(a);
}

[[nodiscard]] std::string_view name_of(AppKind a) noexcept;

/// Increments one session contributes to the five counted features. (The
/// distinct-destination feature is an expectation the feature renderer
/// computes per bin from the bin's destination-draw total.)
struct SessionFootprint {
  std::uint32_t tcp_connections = 0;
  std::uint32_t udp_connections = 0;
  std::uint32_t dns_connections = 0;
  std::uint32_t http_connections = 0;
  std::uint32_t syn_packets = 0;
};

/// Destination address pools for the packet path. The generator owns one per
/// user; sessions draw servers/peers out of it (Zipf-weighted inside the
/// emitter, so a few popular servers dominate while the tail stays long).
struct DestinationPools {
  net::Ipv4Address dns_server;                 ///< enterprise resolver
  net::Ipv4Address mail_server;                ///< enterprise mail host
  std::vector<net::Ipv4Address> web_servers;   ///< user's browsing pool
  std::vector<net::Ipv4Address> peer_pool;     ///< P2P peers / misc hosts
};

namespace detail {
class V2PacketDraws;
}  // namespace detail

/// Emits the packet exchange of one session with the given footprint,
/// starting at `start`. Packets are appended (unsorted across sessions; the
/// generator sorts the final trace). `src` is the monitored host. Every
/// packet lies at or after `start`. `draws` is the bin's packet channel: it
/// supplies destinations, gaps and ephemeral source ports.
void emit_session_packets(AppKind kind, const SessionFootprint& footprint,
                          util::Timestamp start, net::Ipv4Address src,
                          const DestinationPools& pools, detail::V2PacketDraws& draws,
                          std::vector<net::PacketRecord>& out);

}  // namespace monohids::trace
