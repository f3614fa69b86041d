// Burst-episode state machine shared by every render path.
//
// Episodes are rare bursty periods (a crawl, a large sync) during which all
// of a user's session rates are multiplied by a sampled factor. The process
// is stepped bin by bin with identical draws in every render path (bin-level
// batched, packet walk, and the seed bin loop kept as a test oracle), so all
// paths share their bursts draw for draw.
//
// Pinned semantics (tests/trace/test_episode_process.cpp holds these fixed
// so the batched rate-table path can reproduce them exactly):
//
//   - Expiry is half-open [start, end): a bin starting exactly at the
//     episode's end timestamp is NOT boosted — the multiplier resets to 1
//     before the start draw for that bin.
//   - While an episode is active (multiplier != 1), step() consumes NO
//     draws: the start draw only happens when the process is idle.
//   - An episode start consumes exactly three draws in order: the uniform
//     start draw, the log-normal boost draw (two uniforms via Box–Muller),
//     and the exponential duration draw. The boost draw is consumed even
//     when the 6.0 clamp binds — min(sample, 6.0) draws first, clamps after.
//   - The returned multiplier applies to the whole bin: a bin whose start
//     lies inside [start, end) is boosted in full even if the episode
//     expires mid-bin.
#pragma once

#include <algorithm>
#include <cmath>

#include "stats/sampling.hpp"
#include "trace/user_profile.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace monohids::trace {

/// Templated on the engine: v1 paths step a Xoshiro256 stream, the v2
/// counter-mode contract steps a Philox4x32 stream (seeded with the
/// episode key, stream 0). The draw semantics above are engine-agnostic —
/// only the draw grain differs.
template <typename Engine = util::Xoshiro256>
class BasicEpisodeProcess {
 public:
  BasicEpisodeProcess(const UserProfile& user, double log_mu, std::uint64_t seed)
      : user_(&user), log_mu_(log_mu), rng_(seed) {}

  /// Multiplier in effect for the bin starting at `bin_start`.
  double step(util::Timestamp bin_start, double bin_hours, double activity) {
    if (bin_start >= episode_end_) multiplier_ = 1.0;
    const double start_probability =
        std::min(1.0, user_->episode_rate_per_hour * activity * bin_hours);
    if (multiplier_ == 1.0 && rng_.uniform01() < start_probability) {
      const stats::LogNormalSampler boost(log_mu_, user_->episode_log_sigma);
      multiplier_ =
          1.0 + std::min(boost.sample(rng_), 6.0) * user_->episode_amplitude;
      const double minutes =
          stats::sample_exponential(rng_, 1.0 / user_->episode_mean_minutes);
      episode_end_ = bin_start + util::from_seconds(minutes * 60.0);
    }
    return multiplier_;
  }

  /// Upper bound on any multiplier this process can return (the boost draw
  /// is clamped at 6.0 before the amplitude scaling).
  [[nodiscard]] double max_multiplier() const noexcept {
    return 1.0 + 6.0 * user_->episode_amplitude;
  }

 private:
  const UserProfile* user_;
  double log_mu_;
  Engine rng_;
  double multiplier_ = 1.0;
  util::Timestamp episode_end_ = 0;
};

/// The v1 process (Xoshiro engine), under its historical name.
using EpisodeProcess = BasicEpisodeProcess<>;

}  // namespace monohids::trace
