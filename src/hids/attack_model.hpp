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
  /// benign behavior `g`: mean over sizes of P(g + b <= t). Internally
  /// batches the per-size rank queries through rank_batch once the sweep
  /// has 8 or more sizes (bit-identical to the per-size shifted_cdf loop,
  /// which smaller sweeps run directly).
  [[nodiscard]] double mean_fn(const stats::EmpiricalDistribution& g, double t) const;

  /// Batched mean_fn over a whole ascending threshold sweep: out[j] =
  /// mean_fn(g, thresholds[j]). Per attack size, one walk over g's runs
  /// answers every threshold's shifted rank, starting at the first
  /// threshold whose query reaches g's smallest value (lower thresholds
  /// add the exact +0.0 of rank 0) and adding 1.0 once the query passes
  /// the last run. Each run's rank/n quotient is formed once per call, and
  /// accumulation runs in the same size order as the per-call path, so
  /// results are bit-identical to it.
  void mean_fn_batch(const stats::EmpiricalDistribution& g,
                     std::span<const double> thresholds, std::span<double> out) const;
};

/// Builds a linear sweep of `steps` sizes over (0, max_size].
[[nodiscard]] AttackModel linear_attack_sweep(double max_size, std::uint32_t steps);

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
