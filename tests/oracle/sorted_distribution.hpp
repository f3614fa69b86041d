// The sorted-sample distribution: EmpiricalDistribution as it was before it
// stored runs — every sample kept as an ascending double, every query a
// plain computation over that vector (one std::upper_bound per rank, the
// nearest-rank and type-7 quantiles of stats/quantile.hpp, sums taken
// sample by sample). The run representation must answer every query bit
// for bit like this reference (tests/stats/test_kernels_differential.cpp).
// Linked only by tests and A/B benches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hids/attack_model.hpp"

namespace monohids::oracle {

class SortedDistribution {
 public:
  /// Sorts `samples` ascending. std::sort leaves the relative order of
  /// tied -0.0/+0.0 unspecified, so callers that need bitwise answers on
  /// mixed zeros pass them canonicalized to +0.0 (the representative the
  /// run representation keeps).
  explicit SortedDistribution(std::vector<double> samples);

  /// The pooled distribution of `parts` by pairwise std::merge.
  [[nodiscard]] static SortedDistribution merge(std::span<const SortedDistribution> parts);

  [[nodiscard]] std::span<const double> samples() const noexcept { return sorted_; }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }

  /// The samples run-length encoded: ascending distinct values and the
  /// cumulative count #samples <= value of each.
  [[nodiscard]] std::vector<double> distinct_values() const;
  [[nodiscard]] std::vector<std::uint32_t> cumulative_counts() const;

  [[nodiscard]] double mean() const;      ///< std::accumulate in ascending order
  [[nodiscard]] double variance() const;  ///< population variance, ascending order
  [[nodiscard]] std::uint32_t rank(double x) const;  ///< #samples <= x
  [[nodiscard]] double cdf(double x) const;
  [[nodiscard]] double exceedance(double x) const;
  [[nodiscard]] double shifted_cdf(double shift, double t) const;
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double quantile_interpolated(double q) const;
  [[nodiscard]] double max_hidden_shift(double t, double target_mass) const;
  /// AttackModel::mean_fn: one shifted_cdf per attack size, in size order.
  [[nodiscard]] double mean_fn(const hids::AttackModel& attack, double t) const;

 private:
  std::vector<double> sorted_;
};

/// stats::ks_statistic over raw samples: sorts copies of both and walks
/// them sample by sample, tracking the CDF gap at every step. The run walk
/// of the distribution overload must give the same bits. Both samples must
/// be non-empty.
[[nodiscard]] double ks_statistic(std::span<const double> a, std::span<const double> b);

}  // namespace monohids::oracle
