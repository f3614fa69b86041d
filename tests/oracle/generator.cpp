#include "oracle/generator.hpp"

#include <algorithm>
#include <cmath>

#include "stats/sampling.hpp"
#include "trace/activity.hpp"
#include "trace/apps.hpp"
#include "trace/episode_process.hpp"
#include "util/rng.hpp"

namespace monohids::oracle {

features::FeatureMatrix generate_features_seed(const trace::GeneratorConfig& config,
                                               const trace::UserProfile& user) {
  using trace::AppKind;
  using util::Timestamp;
  const util::BinGrid grid = config.grid;
  const util::Duration horizon = config.horizon();
  features::FeatureMatrix matrix;
  for (auto& s : matrix.series) s = features::BinnedSeries(grid, horizon);

  util::Xoshiro256 rng(util::derive_seed(user.seed, "bins", 0));
  trace::EpisodeProcess episodes(user, config.episode_log_mu,
                                 util::derive_seed(user.seed, "episodes", 0));

  const double bin_hours =
      static_cast<double>(grid.width()) / static_cast<double>(util::kMicrosPerHour);
  const double effective_pool =
      std::max(4.0, config.distinct_pool_factor * user.destination_pool_size);
  const std::uint64_t bins = grid.bin_count(horizon);

  for (std::uint64_t b = 0; b < bins; ++b) {
    const Timestamp start = grid.bin_start(b);
    const Timestamp mid = start + grid.width() / 2;
    const double act = trace::activity_at(user.diurnal, mid);
    const double boost = episodes.step(start, bin_hours, act);
    const std::uint32_t week = util::week_of(mid);

    double tcp = 0, udp = 0, dns = 0, http = 0, syn = 0;
    double distinct_draws = 0;

    for (AppKind app : trace::kAllApps) {
      const double lambda =
          user.rate_of(app) * act * boost * user.drift(week, app) * bin_hours;
      const std::uint64_t sessions = stats::sample_poisson(rng, lambda);
      for (std::uint64_t s = 0; s < sessions; ++s) {
        const trace::SessionFootprint f = trace::sample_footprint(app, rng);
        tcp += f.tcp_connections;
        udp += f.udp_connections;
        dns += f.dns_connections;
        http += f.http_connections;
        syn += f.syn_packets;
        distinct_draws += f.distinct_draws;
      }
    }
    // Resolver cache: a fraction of lookups never hit the wire. Cached
    // lookups remove both a DNS flow and its UDP flow (same flow).
    const double cached = std::round(dns * user.dns_cache_hit);
    dns -= cached;
    udp -= cached;
    // Cached lookups also stop contributing a destination draw: no packet
    // reaches the resolver.
    distinct_draws = std::max(0.0, distinct_draws - cached);

    using features::FeatureKind;
    matrix.of(FeatureKind::TcpConnections).set(b, tcp);
    matrix.of(FeatureKind::UdpConnections).set(b, udp);
    matrix.of(FeatureKind::DnsConnections).set(b, dns);
    matrix.of(FeatureKind::HttpConnections).set(b, http);
    matrix.of(FeatureKind::TcpSyn).set(b, syn);
    // Distinct destinations: m popularity-weighted draws from a pool of
    // effective size P cover ~P(1 - (1 - 1/P)^m) distinct addresses.
    const double distinct =
        distinct_draws == 0
            ? 0.0
            : effective_pool *
                  (1.0 - std::pow(1.0 - 1.0 / effective_pool, distinct_draws));
    matrix.of(FeatureKind::DistinctConnections).set(b, std::round(distinct));
  }
  return matrix;
}

}  // namespace monohids::oracle
