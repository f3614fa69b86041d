// Trace generation: turns a UserProfile into traffic.
//
// One draw contract (counter-mode, API_TOUR §16) and two renderers over it:
//
//   - generate_features(): per-bin feature counts, without materializing
//     packets. This is the path the 350-user, multi-week statistical
//     experiments run on (the paper's analysis is entirely bin-level, so
//     nothing is lost).
//   - generate_packets(): actual PacketRecords (windump-style) for a time
//     range, for tests, examples, the daemon and pcap export. Built from
//     the same draws, so extract_features over the packets equals
//     generate_features exactly in every bin on the five connection/SYN
//     counts; the distinct-destination count agrees statistically.
//
// Every (user, bin) cell owns an independent random-access Philox4x32
// stream (key derive_seed(user.seed, "v2/bins", 0), stream = bin index);
// episode boosts come from a serial Philox stream keyed "v2/episodes".
// Bins render independently, so any tile partition, thread count, shard
// size or kernel back-end yields the identical matrix, and a packet window
// costs only its own bins. Both paths are deterministic functions of
// (profile, config).
#pragma once

#include <vector>

#include "features/pipeline.hpp"
#include "features/time_series.hpp"
#include "net/packet.hpp"
#include "trace/user_profile.hpp"

namespace monohids::trace {

struct GeneratorConfig {
  util::BinGrid grid = util::BinGrid::minutes(15);
  std::uint32_t weeks = 5;  ///< horizon; the paper's traces span 5 weeks

  /// Mean of the burst-episode multiplier's log (multiplier = 1 + lognormal).
  double episode_log_mu = 0.5;

  /// Effective-pool factor for the distinct-destination approximation in the
  /// bin-level path (destination picks are popularity-weighted, so the
  /// effective pool is smaller than the nominal one).
  double distinct_pool_factor = 0.6;

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

  /// The user's six binned feature series over the full horizon: one
  /// render_features_v2_tile call covering every bin.
  [[nodiscard]] features::FeatureMatrix generate_features(const UserProfile& user) const;

  /// Renders bins [tile_begin, tile_end) into `matrix` (which must span the
  /// full horizon). Tiles of one user may be rendered in any order,
  /// interleaved with other users, on any thread — each touches only its
  /// own bins and the result is partition-invariant. Defined in
  /// v2_features.cpp.
  void render_features_v2_tile(const UserProfile& user, std::uint64_t tile_begin,
                               std::uint64_t tile_end,
                               features::FeatureMatrix& matrix) const;

  /// Full path: time-sorted packets for [begin, end). `begin`/`end` must lie
  /// within the horizon, begin < end. Ordering is the total order of
  /// PacketRecord (timestamp, then tuple/flags/payload), so equal-timestamp
  /// ties are deterministic and match the streamed path exactly. A window
  /// holds exactly the full trace's packets inside it and renders only its
  /// own bins.
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
  /// Shared bin-walk behind both packet paths: appends rendered session
  /// packets to `pending` and invokes `on_rendered_bin(bin_start)` before
  /// each rendered bin (the streaming watermark). Defined in generator.cpp;
  /// bins render through detail::V2PacketRenderer (v2_packets.cpp).
  template <typename BinStart>
  void walk_packets(const UserProfile& user, util::Timestamp begin, util::Timestamp end,
                    std::vector<net::PacketRecord>& pending, BinStart&& on_rendered_bin) const;

  GeneratorConfig config_;
};

}  // namespace monohids::trace
