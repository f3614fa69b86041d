#include "features/feature.hpp"

#include <string>

#include "util/error.hpp"

namespace monohids::features {

std::string_view name_of(FeatureKind f) noexcept {
  switch (f) {
    case FeatureKind::DnsConnections: return "num-DNS-connections";
    case FeatureKind::TcpConnections: return "num-TCP-connections";
    case FeatureKind::TcpSyn: return "num-TCP-SYN";
    case FeatureKind::HttpConnections: return "num-HTTP-connections";
    case FeatureKind::DistinctConnections: return "num-distinct-connections";
    case FeatureKind::UdpConnections: return "num-UDP-connections";
  }
  return "unknown";
}

FeatureKind parse_feature(std::string_view name) {
  for (FeatureKind f : kAllFeatures) {
    if (name_of(f) == name) return f;
  }
  throw InputError("unknown feature name: " + std::string(name));
}

}  // namespace monohids::features
