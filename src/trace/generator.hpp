// Trace generation: turns a UserProfile into traffic.
//
// Two render paths, driven by the same stochastic session model:
//
//   - generate_packets(): materializes actual PacketRecords (windump-style)
//     for a time range. Full fidelity; cost scales with traffic volume, so
//     it is used for tests, examples and pipeline validation.
//   - generate_features(): renders per-bin feature counts directly by
//     sampling the same session arrivals and SessionFootprints, skipping
//     packet materialization. This is the path the 350-user, multi-week
//     statistical experiments run on (the paper's analysis is entirely
//     bin-level, so nothing is lost; integration tests check the two paths
//     agree statistically).
//
// Both paths are deterministic functions of (profile, config) — they derive
// all randomness from the user's seed.
#pragma once

#include <vector>

#include "features/pipeline.hpp"
#include "features/time_series.hpp"
#include "net/packet.hpp"
#include "trace/user_profile.hpp"

namespace monohids::trace {

/// Scenario draw contract.
///
/// V1 (the seed contract): every user draws from two serial Xoshiro256
/// streams ("bins", "episodes"); each bin's draws depend on every earlier
/// bin's. Preserved bit-for-bit — seeds quoted in EXPERIMENTS.md keep
/// producing the exact matrices they always did.
///
/// V2 (counter-mode): every (user, bin) cell owns an independent
/// random-access Philox4x32 stream (key derive_seed(user.seed, "v2/bins",
/// 0), stream = bin index), with episode boosts from a serial Philox
/// stream keyed "v2/episodes". Bins render independently and in SIMD-width
/// word blocks, so any tile partition, thread count, shard size or kernel
/// back-end yields the identical matrix. This is the fleet default.
enum class ScenarioVersion : std::uint8_t { V1 = 1, V2 = 2 };

struct GeneratorConfig {
  util::BinGrid grid = util::BinGrid::minutes(15);
  std::uint32_t weeks = 5;  ///< horizon; the paper's traces span 5 weeks

  /// Mean of the burst-episode multiplier's log (multiplier = 1 + lognormal).
  double episode_log_mu = 0.5;

  /// Effective-pool factor for the distinct-destination approximation in the
  /// bin-level path (destination picks are popularity-weighted, so the
  /// effective pool is smaller than the nominal one).
  double distinct_pool_factor = 0.6;

  /// Draw contract for the feature path. V1 stays the default so every
  /// seed-quoted artifact is untouched; fleet mode flips its copy to V2
  /// (see sim::FleetConfig).
  ScenarioVersion scenario_version = ScenarioVersion::V1;

  /// V2 only: bins per render tile inside generate_features (0 = the whole
  /// horizon as one tile). Pure partition knob — the output is tile-size
  /// invariant by the V2 contract; fleet mode uses it to interleave cheap
  /// (user, tile) work items.
  std::uint32_t v2_bin_tile = 0;

  /// Rendered horizon, rounded UP to a whole number of bins. The feature
  /// path always renders bin_count(horizon) full bins; before this was
  /// bin-aligned, a non-divisible grid (e.g. 13-minute bins) made the
  /// feature path render the final partial bin in full while the packet
  /// path clipped at weeks*week — the two paths covered different ranges.
  /// For the default grids (15- or 5-minute bins divide a week) this is
  /// exactly weeks * kMicrosPerWeek.
  [[nodiscard]] util::Duration horizon() const noexcept {
    const util::Duration raw = weeks * util::kMicrosPerWeek;
    const util::Duration width = grid.width();
    return (raw + width - 1) / width * width;
  }
};

class TraceGenerator {
 public:
  explicit TraceGenerator(GeneratorConfig config = {});

  [[nodiscard]] const GeneratorConfig& config() const noexcept { return config_; }

  /// Fast path: the user's six binned feature series over the full horizon.
  /// Under ScenarioVersion::V1, runs the batched pipeline (precomputed rate
  /// tables, prepared Poisson rows, SoA staging), bit-identical draw for
  /// draw to the seed per-(bin, app) loop kept as a test oracle in
  /// tests/oracle. Under V2, renders the counter-mode contract tile by tile
  /// (v2_bin_tile).
  [[nodiscard]] features::FeatureMatrix generate_features(const UserProfile& user) const;

  /// V2 only: renders bins [tile_begin, tile_end) of the counter-mode
  /// contract into `matrix` (which must span the full horizon). Tiles of
  /// one user may be rendered in any order, interleaved with other users,
  /// on any thread — each touches only its own bins and the result is
  /// partition-invariant. Defined in batched_generator.cpp.
  void render_features_v2_tile(const UserProfile& user, std::uint64_t tile_begin,
                               std::uint64_t tile_end,
                               features::FeatureMatrix& matrix) const;

  /// Full path: time-sorted packets for [begin, end). `begin`/`end` must lie
  /// within the horizon, begin < end. Ordering is the total order of
  /// PacketRecord (timestamp, then tuple/flags/payload), so equal-timestamp
  /// ties are deterministic and match the streamed path exactly.
  [[nodiscard]] std::vector<net::PacketRecord> generate_packets(const UserProfile& user,
                                                                util::Timestamp begin,
                                                                util::Timestamp end) const;

  /// Streaming form of generate_packets: pushes the identical packet
  /// sequence into `sink` in time-ordered batches of at most `max_batch`
  /// packets. Peak memory is bounded by the reorder window (sessions that
  /// spill past the current bin) plus one staging batch — it does not scale
  /// with (end - begin). Same determinism guarantees as generate_packets.
  void generate_packets_streamed(const UserProfile& user, util::Timestamp begin,
                                 util::Timestamp end, features::PacketSink& sink,
                                 std::size_t max_batch = kDefaultIngestBatch) const;

  /// Default streamed-batch bound: 64K packets (~1.5 MiB of PacketRecords).
  static constexpr std::size_t kDefaultIngestBatch = features::kDefaultIngestBatch;

  /// The user's deterministic destination pools (shared by the packet path
  /// and by anyone replaying the trace).
  [[nodiscard]] DestinationPools make_pools(const UserProfile& user) const;

 private:
  /// Batched implementation of generate_features; defined in
  /// batched_generator.cpp.
  [[nodiscard]] features::FeatureMatrix generate_features_batched(
      const UserProfile& user) const;

  /// V2 counter-mode implementation of generate_features: the tile loop
  /// over render_features_v2_tile. Defined in batched_generator.cpp.
  [[nodiscard]] features::FeatureMatrix generate_features_v2(const UserProfile& user) const;

  /// Shared bin-walk behind both packet paths: appends rendered session
  /// packets to `pending` and invokes `on_rendered_bin(bin_start)` before
  /// each rendered bin (the streaming watermark). Defined in generator.cpp.
  template <typename BinStart>
  void walk_packets(const UserProfile& user, util::Timestamp begin, util::Timestamp end,
                    std::vector<net::PacketRecord>& pending, BinStart&& on_rendered_bin) const;

  GeneratorConfig config_;
};

}  // namespace monohids::trace
