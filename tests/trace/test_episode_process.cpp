// Pins the EpisodeProcess draw semantics every renderer depends on:
// half-open [start, end) expiry, no draws while an episode is active,
// exactly one idle draw per non-starting bin, the three-draw start
// sequence, and the draw-then-clamp boost bound. Every test checks the
// process against an independent mirror of its Philox stream, so any
// change in draw count or order fails here before it silently moves the
// scenario's bursts.
#include "trace/episode_process.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/sampling.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace monohids::trace {
namespace {

constexpr double kLogMu = 0.5;
constexpr double kBinHours = 0.25;

UserProfile episodic_user(double rate_per_hour, double log_sigma = 1.0,
                          double amplitude = 1.0) {
  UserProfile u;
  u.episode_rate_per_hour = rate_per_hour;
  u.episode_log_sigma = log_sigma;
  u.episode_mean_minutes = 20.0;
  u.episode_amplitude = amplitude;
  return u;
}

/// The three-draw start sequence, mirrored: uniform start draw (consumed by
/// the caller), log-normal boost (a Box–Muller pair), exponential duration.
struct MirroredEpisode {
  double multiplier;
  util::Timestamp end;
};

MirroredEpisode mirror_start(util::Philox4x32& mirror, const UserProfile& u,
                             util::Timestamp bin_start) {
  const stats::LogNormalSampler boost(kLogMu, u.episode_log_sigma);
  const double m = 1.0 + std::min(boost.sample(mirror), 6.0) * u.episode_amplitude;
  const double minutes =
      stats::sample_exponential(mirror, 1.0 / u.episode_mean_minutes);
  return {m, bin_start + util::from_seconds(minutes * 60.0)};
}

TEST(EpisodeProcess, ExpiryIsHalfOpenAtTheEndTimestamp) {
  // Start probability pinned at 1: the process starts an episode in every
  // idle bin, so the mirror can predict each multiplier exactly.
  const UserProfile u = episodic_user(1e9);
  EpisodeProcess ep(u, kLogMu, 77);
  util::Philox4x32 mirror(77);

  mirror.uniform01();  // the start draw
  const MirroredEpisode first = mirror_start(mirror, u, 0);
  EXPECT_EQ(ep.step(0, kBinHours, 1.0), first.multiplier);

  // One microsecond before the end: still inside [start, end), still
  // boosted, and no draws consumed.
  EXPECT_EQ(ep.step(first.end - 1, kBinHours, 1.0), first.multiplier);

  // A bin starting exactly at the end timestamp is NOT boosted: the
  // multiplier resets first, and (with probability 1) a fresh episode
  // starts from the very next draws of the stream.
  mirror.uniform01();
  const MirroredEpisode second = mirror_start(mirror, u, first.end);
  const double stepped = ep.step(first.end, kBinHours, 1.0);
  EXPECT_EQ(stepped, second.multiplier);
  EXPECT_NE(stepped, first.multiplier);
}

TEST(EpisodeProcess, ActiveBinsConsumeNoDraws) {
  const UserProfile u = episodic_user(1e9);
  EpisodeProcess ep(u, kLogMu, 123);
  util::Philox4x32 mirror(123);

  mirror.uniform01();
  const MirroredEpisode first = mirror_start(mirror, u, 0);
  ASSERT_EQ(ep.step(0, kBinHours, 1.0), first.multiplier);

  // Many probes inside the active window: if any consumed a draw, the
  // prediction of the follow-up episode below would diverge.
  for (int i = 1; i <= 64; ++i) {
    const util::Timestamp inside = first.end - 1 - i * 1000;
    if (inside <= 0) break;
    ASSERT_EQ(ep.step(inside, kBinHours, 1.0), first.multiplier);
  }

  mirror.uniform01();
  const MirroredEpisode second = mirror_start(mirror, u, first.end);
  EXPECT_EQ(ep.step(first.end, kBinHours, 1.0), second.multiplier);
}

TEST(EpisodeProcess, IdleBinsConsumeExactlyOneDraw) {
  // Zero activity makes the start probability 0, but each idle bin still
  // consumes its start draw. Predict the first episode after k idle bins by
  // skipping exactly k + 1 mirror draws — any other idle-draw count fails.
  const UserProfile u = episodic_user(1e9);
  for (int idle_bins : {1, 3, 17}) {
    EpisodeProcess ep(u, kLogMu, 1000 + idle_bins);
    util::Philox4x32 mirror(1000 + idle_bins);
    for (int i = 0; i < idle_bins; ++i) {
      ASSERT_EQ(ep.step(i, kBinHours, 0.0), 1.0);
      mirror.uniform01();
    }
    mirror.uniform01();  // the successful start draw
    const MirroredEpisode next = mirror_start(mirror, u, idle_bins);
    EXPECT_EQ(ep.step(idle_bins, kBinHours, 1.0), next.multiplier);
  }
}

TEST(EpisodeProcess, BoostDrawsFirstAndClampsAfter) {
  // sigma = 4 makes the raw log-normal boost exceed the 6.0 clamp often.
  // The clamped multiplier must still consume the full Box–Muller pair, or
  // the episode that follows desynchronizes — the mirror covers both.
  const UserProfile u = episodic_user(1e9, 4.0, 2.0);
  bool clamped_at_least_once = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    EpisodeProcess ep(u, kLogMu, seed);
    util::Philox4x32 mirror(seed);
    util::Timestamp bin_start = 0;
    for (int episode = 0; episode < 4; ++episode) {
      mirror.uniform01();
      const MirroredEpisode e = mirror_start(mirror, u, bin_start);
      ASSERT_EQ(ep.step(bin_start, kBinHours, 1.0), e.multiplier);
      ASSERT_LE(e.multiplier, ep.max_multiplier());
      ASSERT_GE(e.multiplier, 1.0);
      if (e.multiplier == ep.max_multiplier()) clamped_at_least_once = true;
      bin_start = e.end;  // jump straight to the half-open reset point
    }
  }
  EXPECT_TRUE(clamped_at_least_once);
}

TEST(EpisodeProcess, MaxMultiplierScalesWithAmplitude) {
  EXPECT_DOUBLE_EQ(EpisodeProcess(episodic_user(0.1), kLogMu, 1).max_multiplier(), 7.0);
  EXPECT_DOUBLE_EQ(
      EpisodeProcess(episodic_user(0.1, 1.0, 2.5), kLogMu, 1).max_multiplier(), 16.0);
}

TEST(EpisodeProcess, DifferentialWalkAgainstIndependentMirror) {
  // Full state-machine replication over a long walk with a moderate start
  // probability: every returned multiplier must match an independent
  // re-implementation of the pinned semantics, draw for draw.
  const UserProfile u = episodic_user(0.5, 2.0, 1.5);
  EpisodeProcess ep(u, kLogMu, 2026);
  util::Philox4x32 mirror(2026);

  double multiplier = 1.0;
  util::Timestamp end = 0;
  const util::Duration width = util::kMicrosPerHour / 4;
  for (int b = 0; b < 2000; ++b) {
    const util::Timestamp bin_start = b * width;
    // activity varies bin to bin so the start probability does too
    const double activity = 0.1 + 0.9 * ((b * 7) % 10) / 10.0;
    if (bin_start >= end) multiplier = 1.0;
    const double start_probability =
        std::min(1.0, u.episode_rate_per_hour * activity * kBinHours);
    if (multiplier == 1.0 && mirror.uniform01() < start_probability) {
      const MirroredEpisode e = mirror_start(mirror, u, bin_start);
      multiplier = e.multiplier;
      end = e.end;
    }
    ASSERT_EQ(ep.step(bin_start, kBinHours, activity), multiplier) << "bin " << b;
  }
}

}  // namespace
}  // namespace monohids::trace
