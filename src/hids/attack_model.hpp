// Synthetic attack-size model.
//
// The paper evaluates detectors against additive attacks swept "through a
// large range of attack sizes", bounded by the largest value any user's own
// traffic reaches (anything bigger trivially stands out on every host). An
// AttackModel is that sweep: a grid of candidate per-bin attack magnitudes
// with equal weight, consumed both by FN estimation in the evaluator and by
// the FN-aware threshold heuristics (F-measure, utility).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stats/empirical.hpp"

namespace monohids::hids {

struct AttackModel {
  std::vector<double> sizes;  ///< candidate per-bin attack magnitudes (> 0)

  /// Mean false-negative rate of threshold `t` against this sweep, under
  /// benign behavior `g`: mean over sizes of P(g + b <= t), with sizes in
  /// any order. One walk over g's runs serves the whole sweep, its cursor
  /// moved from the previous size's query; each size adds the quotient the
  /// per-call shifted_cdf forms, in size order, so results are
  /// bit-identical to it.
  [[nodiscard]] double mean_fn(const stats::EmpiricalDistribution& g, double t) const;

  /// Batched mean_fn over a whole ascending threshold sweep: out[j] =
  /// mean_fn(g, thresholds[j]). Per attack size, the sweep starts at the
  /// first threshold whose query reaches g's smallest value (lower
  /// thresholds add the exact +0.0 of rank 0) and adds 1.0 once the query
  /// passes the last run. In between, small-count distributions (every
  /// value a non-negative integer, at most 65535) read each rank quotient
  /// from a per-thread table over 0..max(), unless it would hold more than
  /// 2 slots per lookup; others walk the runs. Each quotient is
  /// formed once per call and accumulation runs in the same size order as
  /// the per-call path, so results are bit-identical to it.
  void mean_fn_batch(const stats::EmpiricalDistribution& g,
                     std::span<const double> thresholds, std::span<double> out) const;
};

/// Builds a logarithmic sweep of `steps` sizes over [min_size, max_size]
/// (stealthy attacks get proportionally more grid points, mirroring the
/// paper's interest in the 1-100 connections/window range).
[[nodiscard]] AttackModel log_attack_sweep(double min_size, double max_size,
                                           std::uint32_t steps);

/// The paper's sweep bound: the maximum value of the feature over every
/// user's own (training) traffic.
[[nodiscard]] double max_observed_value(
    std::span<const stats::EmpiricalDistribution> users);

}  // namespace monohids::hids
