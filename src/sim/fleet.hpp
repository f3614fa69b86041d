// Fleet mode: bounded-memory scenario pipeline for 100k–1M hosts.
//
// The exact pipeline keeps every user's full sorted week arenas resident —
// fine at the paper's 350 users, hopeless at enterprise fleet scale
// (1M users × 5 weeks × 672 bins × 8 B ≈ 27 GB). Fleet mode streams the
// population through memory one shard at a time and keeps only a compact
// eps-approximate summary per (user, feature, week):
//
//   shard generation (waves of users bounded by a matrix budget, rendered
//     as flattened (user, week-tile) items through util::parallel_for)
//     → per-user GkSketch of each week's bin counts (stats::GkSketch::
//       from_sorted on the sorted week slice)
//     → an m-point quantile-grid row (GkSketch::quantile_batch, one
//       stats::kernels merge-scan), stored as float32
//     → pooled per-(feature, week) sketches folded in user-index order
//       (GkSketch::merge — the fold order, not the shard layout, defines
//       the result, so any shard count produces the same pooled summary).
//
// Everything downstream — assign_thresholds, the heuristics, attacker
// curves, evaluate_policy — runs unmodified: FleetAnalysisCache implements
// hids::DistributionCache by expanding one (feature, week) of the compact
// store into arena-backed EmpiricalDistribution views on demand, keeping at
// most a couple of weeks resident (each expansion is users × m doubles).
//
// Error model (documented bound, asserted by tests and the CI gate): a grid
// row read as an empirical distribution answers rank/CDF queries within
//   eps_total = sketch_epsilon + 1 / (grid_points - 1)
// of the exact per-user distribution (sketch rank error plus grid
// discretization), so a utility U = 1 − [w·FN + (1−w)·FP] built from these
// rates is within 2·eps_total of the exact pipeline's.
//
// Determinism: rows and pooled sketches are bit-identical for every shard
// size and thread count — each user's row depends only on (config, user id)
// and lands in its own slot; the pooled fold is sequential in user order.
// The same holds across SIMD kernel back-ends (the counter-mode draw keys
// make every bin's words independent of how the render work is split).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hids/evaluator.hpp"
#include "sim/scenario.hpp"
#include "stats/gk_sketch.hpp"

namespace monohids::sim {

struct FleetConfig {
  /// Population + generator parameters (same meaning as ScenarioConfig;
  /// fidelity is ignored — fleet mode always renders bin-level features).
  /// Every (user, bin) cell owns an independent Philox stream, so shards
  /// parallelize over flattened (user, week-tile) work items instead of
  /// whole users, and the result is invariant to shard size and thread
  /// count.
  ScenarioConfig base;

  /// Users generated and reduced per resident shard. Execution knob: rows
  /// and pooled sketches are bit-identical for every value; peak RSS and
  /// parallelism scale with it.
  std::uint32_t shard_size = 4096;

  /// Rank error of the per-user week sketches (fraction of a week's bins).
  double sketch_epsilon = 1.0 / 48.0;

  /// Points in the per-(user, feature, week) quantile grid: row k holds
  /// quantile(k / (grid_points - 1)), endpoints included, stored float32.
  std::uint32_t grid_points = 24;

  /// Worker threads per shard (0 = auto via MONOHIDS_THREADS).
  unsigned threads = 0;

  void set_seed(std::uint64_t seed) { base.set_seed(seed); }
  void set_users(std::uint32_t n) { base.set_users(n); }
  void set_weeks(std::uint32_t w) { base.set_weeks(w); }

  /// The documented rank-error bound of a grid row vs the exact per-user
  /// distribution: sketch rank error plus grid discretization.
  [[nodiscard]] double rank_error_bound() const noexcept {
    return sketch_epsilon + 1.0 / static_cast<double>(grid_points - 1);
  }
  /// The derived utility error bound: FP and FN are each rank-error-bounded
  /// rates, and U = 1 − [w·FN + (1−w)·FP] mixes them convexly.
  [[nodiscard]] double utility_error_bound() const noexcept {
    return 2.0 * rank_error_bound();
  }
};

class FleetAnalysisCache;

/// The compact fleet dataset: per-user quantile-grid rows and pooled
/// per-(feature, week) sketches. Build with build_fleet_scenario().
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

  /// Pooled sketch over every user's week bins (folded in user-index
  /// order): the fleet console's population-wide distribution of `feature`
  /// in `week`, e.g. for pooled homogeneous thresholds at full rank
  /// resolution instead of through the m-point rows.
  [[nodiscard]] const stats::GkSketch& pooled(features::FeatureKind feature,
                                              std::uint32_t week) const;

  /// Compact store footprint (rows only) and pooled sketch footprint.
  [[nodiscard]] std::size_t store_bytes() const noexcept;
  [[nodiscard]] std::size_t pooled_sketch_bytes() const noexcept;

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
  std::vector<stats::GkSketch> pooled_;
  mutable std::shared_ptr<FleetAnalysisCache> analysis_cache_;
};

/// Generates, sketches and reduces the whole population shard by shard —
/// one shard of full feature matrices resident at a time. Deterministic for
/// every shard size and thread count. Publishes per-shard obs metrics
/// (fleet.shard_latency_ms, fleet.users_total, fleet.sketch_bytes_total,
/// fleet.peak_rss_kib).
[[nodiscard]] FleetScenario build_fleet_scenario(const FleetConfig& config);

/// hids::DistributionCache over a FleetScenario: week() expands one
/// (feature, week) of the compact store into a shared double arena with
/// per-user EmpiricalDistribution views (rank tables included), keeping an
/// LRU of `max_resident_weeks` expansions; thresholds() runs the stock
/// assign_thresholds over those views. Callers' shared_ptrs keep evicted
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
  struct Expansion {
    std::vector<double> arena;  ///< users × grid_points doubles, user-major
    DistributionSet set;        ///< views into arena
  };

  const FleetScenario& fleet_;
  std::size_t max_resident_;
  std::mutex mutex_;
  /// Small LRU, most recent last: (feature index * weeks + week, expansion).
  std::vector<std::pair<std::size_t, std::shared_ptr<Expansion>>> resident_;
};

/// One policy × one train→test round over the fleet, through the stock
/// evaluation pipeline (assign_thresholds + evaluate_policy on the compact
/// views). UserOutcome::weekly_false_alarms is rescaled to real weeks:
/// llround(fp_rate × bins_per_week) — a compact row has grid_points
/// samples, so the stock per-sample count would undercount the console
/// volume ~28x.
[[nodiscard]] hids::PolicyOutcome evaluate_fleet_policy(
    const FleetScenario& fleet, features::FeatureKind feature,
    hids::EvaluationRound round, const hids::Grouper& grouper,
    const hids::ThresholdHeuristic& heuristic, const hids::AttackModel& attack,
    unsigned threads = 0);

}  // namespace monohids::sim
