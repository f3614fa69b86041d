// Policy = grouping + threshold heuristic (paper §4).
//
// assign_thresholds() is the heart of the reproduction: it partitions the
// population with a Grouper, pools each group's training distributions at
// the "central console" (exactly what the paper's homogeneous and partial
// scenarios do), applies the heuristic to each pooled distribution, and
// hands every member of the group the same threshold.
#pragma once

#include <span>
#include <vector>

#include "hids/grouping.hpp"
#include "hids/heuristics.hpp"

namespace monohids::hids {

struct ThresholdAssignment {
  std::vector<double> threshold_of_user;      // per user
  std::vector<double> threshold_of_group;     // per group
  GroupAssignment groups;

  [[nodiscard]] double threshold(std::uint32_t user) const {
    return threshold_of_user.at(user);
  }
};

/// Computes thresholds for every user under (grouper, heuristic). `attack`
/// is forwarded to FN-aware heuristics and may be null otherwise. Group
/// pooling + heuristic evaluation shard over `threads` workers (0 = auto,
/// 1 = serial; full diversity means one group per user, so this is the
/// expensive sweep the FN-aware heuristics run 350 times). Results are
/// identical for every thread count.
[[nodiscard]] ThresholdAssignment assign_thresholds(
    std::span<const stats::EmpiricalDistribution> training_users, const Grouper& grouper,
    const ThresholdHeuristic& heuristic, const AttackModel* attack = nullptr,
    unsigned threads = 0);

/// The w-independent half of a utility assignment: the grouping plus the
/// utility_hull of every group's operating curve — the pooled curve for a
/// group of several members, the member's own curve for a one-member group.
/// A hull is a few dozen points at most, so one per host is cheap to
/// retain, and re-weighting never rebuilds a curve. The F-measure is not
/// linear in w and cannot select on a hull: it goes through
/// assign_thresholds.
struct PooledCurves {
  GroupAssignment groups;
  std::vector<OperatingCurve> hull_of_group;
};

/// Groups the population and builds the utility hull of each group's
/// operating curve over the same distribution assign_thresholds hands the
/// heuristic, sharded over `threads` workers. Identical for every thread
/// count.
[[nodiscard]] PooledCurves pooled_curves(
    std::span<const stats::EmpiricalDistribution> training_users, const Grouper& grouper,
    const AttackModel& attack, unsigned threads = 0);

/// assign_thresholds(training_users, grouper, heuristic, &attack) from
/// precomputed hulls: select() on every group's hull. Bit-identical to
/// assign_thresholds with the grouper and attack `curves` were built from.
[[nodiscard]] ThresholdAssignment select_thresholds(
    std::span<const stats::EmpiricalDistribution> training_users, const PooledCurves& curves,
    const UtilityHeuristic& heuristic);

/// The `count` users with the lowest assigned thresholds — the paper's
/// "best users" for detecting stealthy anomalies of this feature (Table 2).
/// Group policies hand many users identical thresholds; `tiebreak` (one
/// value per user, typically the personal training quantile) orders those
/// ties by actual host sensitivity. Empty tiebreak falls back to user id.
[[nodiscard]] std::vector<std::uint32_t> best_users(const ThresholdAssignment& assignment,
                                                    std::size_t count,
                                                    std::span<const double> tiebreak = {});

}  // namespace monohids::hids
