#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "stats/sampling.hpp"
#include "trace/episode_process.hpp"
#include "util/error.hpp"

namespace monohids::trace {

using util::Timestamp;

TraceGenerator::TraceGenerator(GeneratorConfig config) : config_(config) {
  MONOHIDS_EXPECT(config_.weeks > 0, "generator horizon must cover at least one week");
}

DestinationPools TraceGenerator::make_pools(const UserProfile& user) const {
  DestinationPools pools;
  pools.dns_server = net::Ipv4Address::from_octets(10, 10, 255, 2);
  pools.mail_server = net::Ipv4Address::from_octets(10, 10, 255, 3);

  util::Xoshiro256 rng(util::derive_seed(user.seed, "pools", 0));
  const std::uint32_t web_count =
      std::max<std::uint32_t>(8, static_cast<std::uint32_t>(user.destination_pool_size * 0.6));
  const std::uint32_t peer_count =
      std::max<std::uint32_t>(8, user.destination_pool_size - web_count);

  pools.web_servers.reserve(web_count);
  for (std::uint32_t i = 0; i < web_count; ++i) {
    // public web space: 93.0.0.0/8-ish spread
    pools.web_servers.push_back(net::Ipv4Address(
        (93u << 24) + static_cast<std::uint32_t>(stats::sample_uniform_int(rng, 0, 0xFFFFFF))));
  }
  pools.peer_pool.reserve(peer_count);
  for (std::uint32_t i = 0; i < peer_count; ++i) {
    pools.peer_pool.push_back(net::Ipv4Address(
        (78u << 24) + static_cast<std::uint32_t>(stats::sample_uniform_int(rng, 0, 0xFFFFFF))));
  }
  return pools;
}

features::FeatureMatrix TraceGenerator::generate_features(const UserProfile& user) const {
  if (config_.scenario_version == ScenarioVersion::V2) return generate_features_v2(user);
  return generate_features_batched(user);
}

template <typename BinStart>
void TraceGenerator::walk_packets(const UserProfile& user, Timestamp begin, Timestamp end,
                                  std::vector<net::PacketRecord>& pending,
                                  BinStart&& on_rendered_bin) const {
  MONOHIDS_EXPECT(begin < end, "empty packet range");
  MONOHIDS_EXPECT(end <= config_.horizon(), "range beyond generator horizon");
  // The packet walk shares the v1 "bins" stream draw for draw with the
  // bin-level path; the v2 counter-mode contract has no packet rendering
  // (its draws are keyed per bin, not walked serially).
  MONOHIDS_EXPECT(config_.scenario_version == ScenarioVersion::V1,
                  "packet rendering requires the v1 scenario contract");

  const util::BinGrid grid = config_.grid;
  const DestinationPools pools = make_pools(user);

  // The same bin-walk as generate_features, with identical draws from the
  // "bins" stream — so session counts and footprints match the bin-level
  // trace exactly. Arrival offsets come from a dedicated stream (always
  // consumed, so any [begin,end) window sees the same sessions at the same
  // times); per-packet details (ephemeral ports, jitter) come from a packet
  // stream and may differ between windows.
  util::Xoshiro256 rng(util::derive_seed(user.seed, "bins", 0));
  util::Xoshiro256 arrival_rng(util::derive_seed(user.seed, "arrivals", 0));
  util::Xoshiro256 packet_rng(util::derive_seed(user.seed, "packets", 0));
  EpisodeProcess episodes(user, config_.episode_log_mu,
                          util::derive_seed(user.seed, "episodes", 0));

  const double bin_hours =
      static_cast<double>(grid.width()) / static_cast<double>(util::kMicrosPerHour);

  const std::uint64_t first_bin = grid.bin_of(begin);
  const std::uint64_t last_bin = grid.bin_of(end - 1);
  // Advance the shared RNG streams deterministically through skipped bins so
  // a [begin,end) window reproduces the exact traffic of the full trace.
  for (std::uint64_t b = 0; b <= last_bin; ++b) {
    const Timestamp start = grid.bin_start(b);
    const Timestamp mid = start + grid.width() / 2;
    const double act = activity_at(user.diurnal, mid);
    const double boost = episodes.step(start, bin_hours, act);
    const std::uint32_t week = util::week_of(mid);
    const bool render = b >= first_bin;
    // Every packet emitted from bin b onward has timestamp >= start, so
    // pending packets before `start` are final (the streaming watermark).
    if (render) on_rendered_bin(start);

    for (AppKind app : kAllApps) {
      const double lambda =
          user.rate_of(app) * act * boost * user.drift(week, app) * bin_hours;
      const std::uint64_t sessions = stats::sample_poisson(rng, lambda);
      for (std::uint64_t s = 0; s < sessions; ++s) {
        SessionFootprint f = sample_footprint(app, rng);
        const Timestamp at =
            start + static_cast<util::Duration>(arrival_rng.uniform01() *
                                                static_cast<double>(grid.width() - 1));
        if (!render) continue;
        // Resolver cache, matching the bin-level path statistically.
        std::uint32_t kept_dns = 0;
        for (std::uint32_t d = 0; d < f.dns_connections; ++d) {
          if (packet_rng.uniform01() >= user.dns_cache_hit) ++kept_dns;
        }
        f.udp_connections -= (f.dns_connections - kept_dns);
        f.dns_connections = kept_dns;
        emit_session_packets(app, f, at, user.address, pools, packet_rng, pending);
      }
    }
  }
}

std::vector<net::PacketRecord> TraceGenerator::generate_packets(const UserProfile& user,
                                                                Timestamp begin,
                                                                Timestamp end) const {
  std::vector<net::PacketRecord> out;
  walk_packets(user, begin, end, out, [](Timestamp) {});

  // Total order (timestamp, tuple, flags, payload): equal-timestamp ties are
  // deterministic and identical to the chunk-sorted streamed path.
  std::sort(out.begin(), out.end());
  // Clip: sessions started near the end of the window may spill past `end`,
  // and sessions in begin's bin may have started before `begin`.
  out.erase(std::remove_if(out.begin(), out.end(),
                           [begin, end](const net::PacketRecord& p) {
                             return p.timestamp < begin || p.timestamp >= end;
                           }),
            out.end());
  return out;
}

void TraceGenerator::generate_packets_streamed(const UserProfile& user, Timestamp begin,
                                               Timestamp end, features::PacketSink& sink,
                                               std::size_t max_batch) const {
  MONOHIDS_EXPECT(max_batch > 0, "streamed batch size must be positive");

  std::vector<net::PacketRecord> pending;  // reorder window: ts >= watermark
  std::vector<net::PacketRecord> ready;    // sorted finals awaiting emission
  std::vector<net::PacketRecord> stage;    // staged batch for the sink

  // Batch-granular instrumentation: local tallies published once per user
  // walk, so the per-packet path carries no atomics (obs cost model).
  static obs::Counter packets_streamed =
      obs::MetricsRegistry::global().counter("tracegen.packets_streamed");
  static obs::Histogram reorder_occupancy = obs::MetricsRegistry::global().histogram(
      "tracegen.reorder_window_packets", obs::pow2_buckets(20));
  std::uint64_t staged_total = 0;
  std::size_t peak_pending = 0;

  const auto emit_full_batches = [&](bool emit_tail) {
    std::size_t offset = 0;
    while (stage.size() - offset >= max_batch) {
      sink.on_batch(std::span<const net::PacketRecord>(stage).subspan(offset, max_batch));
      offset += max_batch;
    }
    if (emit_tail && offset < stage.size()) {
      sink.on_batch(std::span<const net::PacketRecord>(stage).subspan(offset));
      offset = stage.size();
    }
    stage.erase(stage.begin(), stage.begin() + static_cast<std::ptrdiff_t>(offset));
  };

  const auto flush_watermark = [&](Timestamp watermark) {
    // Move everything final (ts < watermark) out of the reorder window. The
    // partition splits on timestamp alone, so equal-timestamp ties always
    // stay in one flush group and the per-group total-order sort reproduces
    // the batch path's global sort exactly.
    peak_pending = std::max(peak_pending, pending.size());
    const auto keep = std::partition(pending.begin(), pending.end(),
                                     [watermark](const net::PacketRecord& p) {
                                       return p.timestamp >= watermark;
                                     });
    if (keep == pending.end()) return;
    ready.assign(keep, pending.end());
    pending.erase(keep, pending.end());
    std::sort(ready.begin(), ready.end());
    for (const net::PacketRecord& p : ready) {
      if (p.timestamp < begin || p.timestamp >= end) continue;  // window clip
      stage.push_back(p);
      ++staged_total;
    }
    emit_full_batches(false);
  };

  walk_packets(user, begin, end, pending, flush_watermark);
  // Everything left is final; `end` as watermark clips the spill past it.
  flush_watermark(std::numeric_limits<Timestamp>::max());
  emit_full_batches(true);

  packets_streamed.add(staged_total);
  reorder_occupancy.observe(static_cast<double>(peak_pending));
}

}  // namespace monohids::trace
