// Enterprise population generation.
//
// Replaces the paper's proprietary 350-host dataset. Users are sampled from
// heavy-tailed meta-distributions calibrated so the derived per-feature
// 99th-percentile thresholds qualitatively match Figure 1: 2-4 decades of
// spread for five features, ~2 decades for DNS, and a ~15% heavy-user knee.
// See DESIGN.md §2 for the substitution rationale.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/user_profile.hpp"

namespace monohids::trace {

struct PopulationConfig {
  std::uint32_t user_count = 350;
  std::uint64_t seed = 42;
  std::uint32_t weeks = 5;  ///< horizon used for weekly drift sampling

  /// Fraction of users in the heavy class (the knee in Fig. 1).
  double heavy_fraction = 0.15;

  /// log-normal intensity meta-distribution for the base (light/medium)
  /// population; heavy users multiply an extra log-normal factor on top.
  double intensity_log_mu = 0.6;
  double intensity_log_sigma = 0.55;
  double heavy_boost_log_mu = 1.2;     ///< e^1.2 ~ 3.3x boost for the knee
  double heavy_boost_log_sigma = 0.4;

  /// A small subset of heavy users are extreme outliers (build machines,
  /// data-sync power users) — the hosts whose bulk traffic dwarfs any
  /// population-wide threshold. Fraction is relative to the heavy class.
  double extreme_fraction_of_heavy = 0.08;
  double extreme_boost_log_mu = 2.7;
  double extreme_boost_log_sigma = 0.35;

  /// Per-app mix variability across users (log-sigma of the per-app weight).
  /// DNS gets a tighter sigma: the paper observes only ~2 decades of DNS
  /// spread vs 3-4 for the other features.
  double app_mix_log_sigma = 0.85;
  double dns_mix_log_sigma = 0.45;

  /// Week-over-week drift log-sigma (threshold instability, §6.1).
  double weekly_drift_log_sigma = 0.07;

  /// Population-wide multiplicative activity trend per week. The paper
  /// observed that a 99th-percentile threshold did "not always reflect a 1%
  /// false positive rate in the next week" — realized per-user FP came in
  /// well under target — which implies test weeks ran lighter than training
  /// weeks. A mild weekly decline (seasonal tail-off across the Q1
  /// collection window) reproduces that asymmetry.
  double weekly_trend = 0.84;

  /// Enterprise address block users are numbered from.
  net::Ipv4Address subnet_base = net::Ipv4Address::from_octets(10, 10, 0, 0);
};

/// Mean session rates per hour (at activity 1.0, intensity 1.0) per app;
/// exposed for tests and ablations.
[[nodiscard]] std::array<double, kAppCount> base_session_rates() noexcept;

/// Random-access population generation for wave-by-wave fleet builds.
///
/// Profile sampling is pure per user (its RNG stream is derived from the
/// user id alone), but extreme-host promotion is a *global* post-pass: it
/// ranks all heavy-class users by intensity and boosts the top few. The
/// builder makes that compatible with streaming by running a cheap preview
/// pass at construction — replaying, per user, only the RNG draw prefix
/// that determines (intensity, heavy_class) — to fix the promotion plan up
/// front. After that, build(id) is pure: any shard can materialize any
/// user, in any order, bit-identical to generate_population().
class PopulationBuilder {
 public:
  explicit PopulationBuilder(PopulationConfig config);

  [[nodiscard]] const PopulationConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t user_count() const noexcept { return config_.user_count; }
  [[nodiscard]] std::size_t extreme_count() const noexcept {
    return extreme_rank_by_id_.size();
  }

  /// Materializes one user's full profile (including extreme promotion when
  /// the preview plan selected it). Pure: depends only on (config, id).
  [[nodiscard]] UserProfile build(std::uint32_t id) const;

 private:
  PopulationConfig config_;
  std::array<double, kAppCount> base_rates_;
  /// (user id, promotion rank), sorted by user id, for the preview-planned
  /// extreme hosts.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> extreme_rank_by_id_;
};

/// Deterministically generates the population for `config`.
[[nodiscard]] std::vector<UserProfile> generate_population(const PopulationConfig& config);

}  // namespace monohids::trace
