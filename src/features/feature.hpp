// The behavioral features of Table 1.
//
// Six additive traffic features, each counted per time bin on a per-source
// (monitored-host-initiated) basis:
//
//   Feature                   Anomaly targeted        Product (per paper)
//   num-DNS-connections       Botnet C&C              Damballa
//   num-TCP-connections       scans, DDoS             Cisco CSA
//   num-TCP-SYN               scans, DDoS             Bro, CSA
//   num-HTTP-connections      Clickfraud, DDoS        Bro, BlackIce
//   num-distinct-connections  scans                   Bro
//   num-UDP-connections       scans, DDoS             Cisco CSA
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace monohids::features {

enum class FeatureKind : std::uint8_t {
  DnsConnections = 0,
  TcpConnections,
  TcpSyn,
  HttpConnections,
  DistinctConnections,
  UdpConnections,
};

inline constexpr std::size_t kFeatureCount = 6;

inline constexpr std::array<FeatureKind, kFeatureCount> kAllFeatures = {
    FeatureKind::DnsConnections,     FeatureKind::TcpConnections,
    FeatureKind::TcpSyn,             FeatureKind::HttpConnections,
    FeatureKind::DistinctConnections, FeatureKind::UdpConnections,
};

[[nodiscard]] constexpr std::size_t index_of(FeatureKind f) noexcept {
  return static_cast<std::size_t>(f);
}

/// Canonical name, e.g. "num-TCP-connections".
[[nodiscard]] std::string_view name_of(FeatureKind f) noexcept;

/// Parses a canonical name back to the kind; throws InputError if unknown.
[[nodiscard]] FeatureKind parse_feature(std::string_view name);

}  // namespace monohids::features
