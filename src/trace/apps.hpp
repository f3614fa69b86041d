// Application session models.
//
// Each end-host behavior is a mix of six application types. A "session" is
// one user-visible action (loading a page, a mail poll, a P2P exchange...).
// Every session type can render itself two ways, guaranteed consistent:
//   - footprint(): the increments it contributes to the six study features
//     (used by the fast bin-level generator), and
//   - emit_packets(): an actual packet exchange whose flow-table/extractor
//     output matches that footprint (used by the full packet-level path and
//     validated by integration tests).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "util/rng.hpp"

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

/// Feature increments contributed by one session. `distinct_draws` is the
/// number of destination-pool draws the session makes; the generator turns
/// draws into expected distinct destinations via the user's pool size.
struct SessionFootprint {
  std::uint32_t tcp_connections = 0;
  std::uint32_t udp_connections = 0;
  std::uint32_t dns_connections = 0;
  std::uint32_t http_connections = 0;
  std::uint32_t syn_packets = 0;
  std::uint32_t distinct_draws = 0;
};

/// Samples the random shape of one session of `kind` (page size, peer count,
/// ...). Deterministic given the RNG state.
[[nodiscard]] SessionFootprint sample_footprint(AppKind kind, util::Xoshiro256& rng);

/// Destination address pools for the packet path. The generator owns one per
/// user; sessions draw servers/peers out of it (Zipf-weighted inside the
/// emitter, so a few popular servers dominate while the tail stays long).
struct DestinationPools {
  net::Ipv4Address dns_server;                 ///< enterprise resolver
  net::Ipv4Address mail_server;                ///< enterprise mail host
  std::vector<net::Ipv4Address> web_servers;   ///< user's browsing pool
  std::vector<net::Ipv4Address> peer_pool;     ///< P2P peers / misc hosts
};

/// Emits the packet exchange of one session with the given sampled
/// footprint, starting at `start`. Packets are appended (unsorted across
/// sessions; the generator sorts the final trace). `src` is the monitored
/// host. Every packet lies at or after `start`.
///
/// `Engine` supplies the session's draws: destinations, gaps and
/// ephemeral source ports. A util::Xoshiro256 (the v1 contract) draws all
/// of them from the stream. An engine with `uniform_int(lo, hi)` and
/// `ephemeral_port(protocol)` members supplies those itself (the v2 packet
/// channel, trace/v2_contract.hpp). Instantiated for those two engines.
template <typename Engine>
void emit_session_packets(AppKind kind, const SessionFootprint& footprint,
                          util::Timestamp start, net::Ipv4Address src,
                          const DestinationPools& pools, Engine& rng,
                          std::vector<net::PacketRecord>& out);

}  // namespace monohids::trace
