#include "trace/generator.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "stats/sampling.hpp"
#include "trace/v2_contract.hpp"
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

template <typename BinStart>
void TraceGenerator::walk_packets(const UserProfile& user, Timestamp begin, Timestamp end,
                                  std::vector<net::PacketRecord>& pending,
                                  BinStart&& on_rendered_bin) const {
  MONOHIDS_EXPECT(begin < end, "empty packet range");
  MONOHIDS_EXPECT(end <= config_.horizon(), "range beyond generator horizon");

  const util::BinGrid grid = config_.grid;
  const DestinationPools pools = make_pools(user);
  const std::uint64_t first_bin = grid.bin_of(begin);
  const std::uint64_t last_bin = grid.bin_of(end - 1);

  // Every packet of a bin's sessions lies inside the bin, so the window
  // renders its own bins and nothing else.
  detail::V2PacketRenderer renderer(config_, user, pools, first_bin, last_bin + 1);
  for (std::uint64_t b = first_bin; b <= last_bin; ++b) {
    on_rendered_bin(grid.bin_start(b));
    renderer.render_bin(b, pending);
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
