// Fleet mode: bounded-memory scenario pipeline for 100k–1M hosts.
//
// The exact pipeline keeps every user's full week distributions resident —
// fine at the paper's 350 users, hopeless at enterprise fleet scale
// (1M users × 5 weeks × 672 bins × 8 B ≈ 27 GB). Fleet mode streams the
// population through memory one wave of users at a time and keeps only a
// compact m-point row per (user, feature, week):
//
//   wave generation (users per wave bounded by a matrix byte budget,
//     rendered as flattened (user, week-tile) items through
//     util::parallel_for)
//     → each user-week's exact EmpiricalDistribution (built in place from
//       the week slice)
//     → its nearest-rank quantiles at k / (m − 1), stored as float32
//       (grid_row).
//
// Everything downstream — assign_thresholds, the heuristics, attacker
// curves, evaluate_policy — runs unmodified: FleetAnalysisCache implements
// hids::DistributionCache by expanding one (feature, week) of the compact
// store into per-user EmpiricalDistributions on demand, keeping at most a
// couple of weeks resident (each expansion holds at most users × m runs).
// A pooled (homogeneous) distribution is EmpiricalDistribution::merge over
// that expansion, as in the exact pipeline.
//
// Error model (a proof for counts below 2^24, which float32 holds exactly;
// asserted by tests and the CI gate). Let F be the exact CDF of a
// user-week and q_k = quantile(k / (m − 1)) its row, k = 0..m−1. If no q_k
// is <= x, x lies below the minimum and both CDFs read 0. Otherwise let j
// be the largest k with q_k <= x. Nearest rank gives F(q_j) >= j / (m − 1),
// and q_{j+1} > x gives F(x) < (j + 1) / (m − 1) (for j = m − 1, F(x) = 1),
// so F(x) ∈ [j/(m−1), (j+1)/(m−1)). The row is ascending, so exactly j + 1
// of its m entries are <= x and the row's CDF is (j + 1) / m. Both ends of
// the interval lie within 1/(m − 1) of (j + 1) / m, the upper one strictly:
//   |row CDF(x) − F(x)| < rank_error_bound() = 1 / (m − 1).
// FP and FN rates are CDF reads, and U = 1 − [w·FN + (1−w)·FP] mixes them
// convexly; the heuristic picks its threshold on the row's CDF, a second
// read within the same bound, so the documented utility bound is
// utility_error_bound() = 2 / (m − 1) (0.087 at m = 24).
//
// The bound is on CDF reads and utility, not on percentile thresholds. A
// row read as an m-sample distribution answers every nearest-rank
// percentile above (m − 1)/m with its top point, the user-week's maximum,
// so at m = 24 every fleet 99th-percentile threshold is the weekly maximum:
// ablation_streaming's grid-24 row measures a 75% median threshold error
// and 0.189% realized FP against the exact 0.717%. Fleet-mode percentile
// policies therefore alarm less than the exact pipeline.
//
// Determinism: rows are bit-identical for every thread count — each user's
// row depends only on (config, user id) and lands in its own slot. The
// same holds across SIMD kernel back-ends (the counter-mode draw keys make
// every bin's words independent of how the render work is split).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "hids/evaluator.hpp"
#include "sim/scenario.hpp"
#include "stats/empirical.hpp"

namespace monohids::sim {

struct FleetConfig {
  /// Population + generator parameters (same meaning as ScenarioConfig;
  /// fidelity is ignored — fleet mode always renders bin-level features).
  /// Every (user, bin) cell owns an independent Philox stream, so waves
  /// parallelize over flattened (user, week-tile) work items instead of
  /// whole users, and the result is invariant to the thread count.
  ScenarioConfig base;

  /// Points in the per-(user, feature, week) quantile grid: row k holds
  /// quantile(k / (grid_points - 1)), endpoints included, stored float32.
  std::uint32_t grid_points = 24;

  /// Worker threads per wave (0 = auto via MONOHIDS_THREADS).
  unsigned threads = 0;

  void set_seed(std::uint64_t seed) { base.set_seed(seed); }
  void set_users(std::uint32_t n) { base.set_users(n); }
  void set_weeks(std::uint32_t w) { base.set_weeks(w); }

  /// The rank-error bound of a grid row against the exact per-user
  /// distribution (strict; see the error model above).
  [[nodiscard]] double rank_error_bound() const noexcept {
    return 1.0 / static_cast<double>(grid_points - 1);
  }
  /// The documented utility error bound: twice the rank-error bound.
  [[nodiscard]] double utility_error_bound() const noexcept {
    return 2.0 * rank_error_bound();
  }
};

/// One fleet row: row[k] = float(week.quantile(k / (m − 1))) for
/// m = row.size() >= 2, the exact nearest-rank quantiles of a non-empty
/// week distribution on the grid, endpoints included.
void grid_row(const stats::EmpiricalDistribution& week, std::span<float> row);

class FleetAnalysisCache;

/// The compact fleet dataset: per-user quantile-grid rows. Build with
/// build_fleet_scenario().
class FleetScenario {
 public:
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t user_count() const noexcept {
    return config_.base.population.user_count;
  }
  [[nodiscard]] std::uint32_t week_count() const noexcept {
    return config_.base.generator.weeks;
  }
  /// Bins per week on the generator grid — the test-week sample count a
  /// console alarm volume must be scaled by (a compact row has grid_points
  /// entries, not bins_per_week).
  [[nodiscard]] std::uint32_t bins_per_week() const noexcept { return bins_per_week_; }
  [[nodiscard]] std::uint32_t grid_points() const noexcept { return config_.grid_points; }

  /// One user's ascending quantile-grid row for (feature, week).
  [[nodiscard]] std::span<const float> row(features::FeatureKind feature,
                                           std::uint32_t week,
                                           std::uint32_t user) const;

  /// The whole user-major row block for (feature, week): user u occupies
  /// [u * grid_points, (u + 1) * grid_points).
  [[nodiscard]] std::span<const float> rows(features::FeatureKind feature,
                                            std::uint32_t week) const;

  /// Compact store footprint.
  [[nodiscard]] std::size_t store_bytes() const noexcept;

  /// Lazily-created analysis cache over this fleet (thread-safe after the
  /// first reference; take that from a single thread, like
  /// Scenario::analysis()).
  [[nodiscard]] FleetAnalysisCache& analysis() const;

 private:
  friend FleetScenario build_fleet_scenario(const FleetConfig& config);
  FleetScenario() = default;

  [[nodiscard]] std::size_t slot(features::FeatureKind feature, std::uint32_t week) const;

  FleetConfig config_;
  std::uint32_t bins_per_week_ = 0;
  /// Indexed [feature * weeks + week]; each entry users × grid_points
  /// floats, user-major.
  std::vector<std::vector<float>> store_;
  mutable std::shared_ptr<FleetAnalysisCache> analysis_cache_;
};

/// Generates and reduces the whole population wave by wave — one wave of
/// full feature matrices resident at a time. Deterministic for every thread
/// count. Publishes per-wave obs metrics (fleet.wave_latency_ms,
/// fleet.waves_total, fleet.users_total, fleet.peak_rss_kib).
[[nodiscard]] FleetScenario build_fleet_scenario(const FleetConfig& config);

/// hids::DistributionCache over a FleetScenario: week() expands one
/// (feature, week) of the compact store into one EmpiricalDistribution per
/// user (built from the user's grid row), keeping an LRU of
/// `max_resident_weeks` expansions; thresholds() runs the stock
/// assign_thresholds over them. Callers' shared_ptrs keep evicted
/// expansions alive, so handing out references is always safe.
class FleetAnalysisCache final : public hids::DistributionCache {
 public:
  explicit FleetAnalysisCache(const FleetScenario& fleet,
                              std::size_t max_resident_weeks = 2);

  [[nodiscard]] std::shared_ptr<const DistributionSet> week(
      features::FeatureKind feature, std::uint32_t week, unsigned threads = 0) override;

  [[nodiscard]] std::shared_ptr<const hids::ThresholdAssignment> thresholds(
      features::FeatureKind feature, std::uint32_t train_week,
      const hids::Grouper& grouper, const hids::ThresholdHeuristic& heuristic,
      const hids::AttackModel* attack, unsigned threads = 0) override;

  /// Attack sweep bounded by the maximum observed training value, exactly
  /// like AnalysisCache::attack_model (but over the compact rows).
  [[nodiscard]] std::shared_ptr<const hids::AttackModel> attack_model(
      features::FeatureKind feature, std::uint32_t train_week,
      std::uint32_t steps = 64, unsigned threads = 0);

 private:
  const FleetScenario& fleet_;
  std::size_t max_resident_;
  std::mutex mutex_;
  /// Small LRU, most recent last: (feature index * weeks + week, expansion).
  std::vector<std::pair<std::size_t, std::shared_ptr<const DistributionSet>>> resident_;
};

/// One policy × one train→test round over the fleet, through the stock
/// evaluation pipeline (assign_thresholds + evaluate_policy on the
/// distributions of the compact rows). UserOutcome::weekly_false_alarms is rescaled to real weeks:
/// llround(fp_rate × bins_per_week) — a compact row has grid_points
/// samples, so the stock per-sample count would undercount the console
/// volume ~28x.
[[nodiscard]] hids::PolicyOutcome evaluate_fleet_policy(
    const FleetScenario& fleet, features::FeatureKind feature,
    hids::EvaluationRound round, const hids::Grouper& grouper,
    const hids::ThresholdHeuristic& heuristic, const hids::AttackModel& attack,
    unsigned threads = 0);

}  // namespace monohids::sim
