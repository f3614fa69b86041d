// Policy evaluation (paper §6 methodology).
//
// Thresholds are learned on one week and applied to the next; each user
// then experiences an operating point (FP_i, FN_i):
//   FP_i = P(g_test > T_i)                    — benign test bins that alarm,
//   FN_i = E_b[ P(g_test + b <= T_i) ]        — misses over the attack sweep,
//   U_i  = 1 − [w·FN_i + (1−w)·FP_i]          — the paper's utility.
// evaluate_policy() produces these for every user under one
// (grouper, heuristic) policy; evaluate_rounds() averages over several
// train→test week pairs (the paper uses wk1→wk2 and wk3→wk4).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "features/time_series.hpp"
#include "hids/threshold_policy.hpp"

namespace monohids::hids {

/// Builds each user's empirical distribution of `feature` over `week` from
/// their feature matrices. Users are independent, so the build fans out
/// over `threads` workers (0 = auto via util::default_thread_count(),
/// 1 = serial); the result is identical for every thread count.
[[nodiscard]] std::vector<stats::EmpiricalDistribution> week_distributions(
    std::span<const features::FeatureMatrix> users, features::FeatureKind feature,
    std::uint32_t week, unsigned threads = 0);

/// Memoization interface the evaluation pipeline threads through: a source
/// of precomputed per-user week distributions and threshold assignments.
/// Implementations must return results bit-identical to the direct
/// week_distributions / assign_thresholds calls for the same population and
/// be safe to call from multiple (non-pool) threads. sim::AnalysisCache is
/// the production implementation; evaluation APIs accept a null pointer to
/// mean "compute from scratch every time".
class DistributionCache {
 public:
  using DistributionSet = std::vector<stats::EmpiricalDistribution>;

  virtual ~DistributionCache() = default;

  /// Per-user distributions of `feature` over `week`.
  [[nodiscard]] virtual std::shared_ptr<const DistributionSet> week(
      features::FeatureKind feature, std::uint32_t week, unsigned threads) = 0;

  /// Threshold assignment for (feature, train_week, grouper, heuristic,
  /// attack). `attack` may be null for FN-unaware heuristics.
  [[nodiscard]] virtual std::shared_ptr<const ThresholdAssignment> thresholds(
      features::FeatureKind feature, std::uint32_t train_week, const Grouper& grouper,
      const ThresholdHeuristic& heuristic, const AttackModel* attack,
      unsigned threads) = 0;
};

struct UserOutcome {
  double threshold = 0.0;
  std::uint32_t group = 0;
  double fp_rate = 0.0;
  double fn_rate = 0.0;
  std::uint64_t weekly_false_alarms = 0;

  [[nodiscard]] double detection_rate() const noexcept { return 1.0 - fn_rate; }
  [[nodiscard]] double utility(double w) const noexcept {
    return 1.0 - (w * fn_rate + (1.0 - w) * fp_rate);
  }
};

struct PolicyOutcome {
  std::string policy_name;
  std::string heuristic_name;
  std::vector<UserOutcome> users;

  [[nodiscard]] std::vector<double> utilities(double w) const;
  [[nodiscard]] double mean_utility(double w) const;
  [[nodiscard]] std::uint64_t total_false_alarms() const;
};

/// Evaluates one policy for one train→test round. Threshold assignment and
/// the per-user (FP, FN) sweep shard over `threads` workers (0 = auto,
/// 1 = serial); outcomes land in per-user slots, so results are identical
/// for every thread count.
[[nodiscard]] PolicyOutcome evaluate_policy(
    std::span<const stats::EmpiricalDistribution> train,
    std::span<const stats::EmpiricalDistribution> test, const Grouper& grouper,
    const ThresholdHeuristic& heuristic, const AttackModel& attack, unsigned threads = 0);

/// Same, but with a precomputed threshold assignment (e.g. from a
/// DistributionCache) instead of running grouping + heuristics inline.
/// `policy_name` / `heuristic_name` label the outcome.
[[nodiscard]] PolicyOutcome evaluate_policy(
    std::span<const stats::EmpiricalDistribution> train,
    std::span<const stats::EmpiricalDistribution> test,
    const ThresholdAssignment& assignment, std::string policy_name,
    std::string heuristic_name, const AttackModel& attack, unsigned threads = 0);

/// One train→test week pair.
struct EvaluationRound {
  std::uint32_t train_week = 0;
  std::uint32_t test_week = 1;
};

/// Runs several rounds and averages each user's outcomes across rounds
/// (thresholds/groups reported from the last round; alarm counts are
/// per-week means rounded to the nearest integer). When `cache` is non-null
/// it must cover the same `users` population; week distributions and
/// threshold assignments are then fetched through it (memoized) instead of
/// rebuilt per round — the result is bit-identical either way. Every
/// round's inputs are fetched first, on the calling thread; then one
/// parallel sweep over users runs all rounds for each user, accumulating
/// in round order, so the result equals per-round evaluate_policy calls
/// averaged in the same order. The evaluation and false-alarm counters
/// still advance once per round, with that round's totals.
[[nodiscard]] PolicyOutcome evaluate_rounds(
    std::span<const features::FeatureMatrix> users, features::FeatureKind feature,
    std::span<const EvaluationRound> rounds, const Grouper& grouper,
    const ThresholdHeuristic& heuristic, const AttackModel& attack, unsigned threads = 0,
    DistributionCache* cache = nullptr);

/// Replay outcome for a real attack overlaid on the test week: detection is
/// measured only on bins where the attack is active (b > 0).
struct ReplayOutcome {
  double fp_rate = 0.0;
  double detection_rate = 0.0;
};

[[nodiscard]] ReplayOutcome evaluate_replay(std::span<const double> benign_test_bins,
                                            std::span<const double> attack_bins,
                                            double threshold);

/// Joint (any-of-six-features) alarm analysis. A behavioral HIDS watches
/// all features concurrently and pages on any exceedance, so the user-felt
/// false-positive rate is the JOINT rate — strictly above every single
/// feature's, but below their sum when features co-fire within a bin
/// (bursts raise several counters at once).
struct JointAlarmOutcome {
  double joint_fp_rate = 0.0;                              ///< P(any feature fires)
  std::array<double, features::kFeatureCount> per_feature{};  ///< marginal rates
  double sum_of_marginals = 0.0;
  /// sum_of_marginals / joint: >1 means features co-fire (alarms cluster in
  /// the same bins), the dedup factor an IT console experiences.
  [[nodiscard]] double coincidence_factor() const noexcept {
    return joint_fp_rate > 0.0 ? sum_of_marginals / joint_fp_rate : 1.0;
  }
};

/// Scans `week` of one host's matrix against per-feature thresholds.
[[nodiscard]] JointAlarmOutcome joint_alarm_rate(
    const features::FeatureMatrix& matrix, std::uint32_t week,
    const std::array<double, features::kFeatureCount>& thresholds);

}  // namespace monohids::hids
