// Empirical distribution of a traffic feature.
//
// The paper treats each time-bin count as a sample of the per-host feature
// distribution P(g_i^j) and derives everything — thresholds, false-positive
// rates P(g > T), mimicry head-room — from the empirical CDF. This class is
// that CDF: it answers quantile / (c)CDF / convolution-style queries exactly.
//
// Representation: the samples as runs — the ascending distinct values and,
// per value, the cumulative count #samples <= value. That is the smallest
// exact form of an empirical CDF and it is exact for any finite doubles: a
// host-week of 672 traffic-count bins holds about 50 distinct values, and
// every rank query is a search over those values. Samples that compare
// equal share one run, so -0.0 and +0.0 fall into one zero run, stored as
// +0.0.
//
// Ownership model: the runs live in one immutable, shared block (a
// reference-counted pair of vectors). Copying an EmpiricalDistribution
// copies a pointer, never the runs, so the same per-user distributions can
// be handed to many experiments zero-copy (sim::AnalysisCache relies on
// this). Every distribution owns (a share of) its runs; there are no
// views, and spans returned by values()/cumulative_counts() stay valid for
// as long as any copy of the distribution lives.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace monohids::stats {

class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;

  /// Builds from raw samples in any order. Samples must be finite and at
  /// most 2^32 - 1 of them. Small non-negative integer samples (traffic
  /// counts) are counted into runs by one histogram sweep; any other input
  /// is sorted and run-length encoded. Both give the same runs.
  explicit EmpiricalDistribution(std::vector<double> samples);

  [[nodiscard]] bool empty() const noexcept { return runs_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept {
    return runs_ == nullptr ? 0 : runs_->cum.back();
  }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Mean and population variance, accumulated sample by sample in
  /// ascending order (each run's value added once per sample), so they are
  /// bit-identical to the same sums over the sorted samples.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

  /// Ascending distinct sample values, one per run (empty when empty()).
  [[nodiscard]] std::span<const double> values() const noexcept {
    return runs_ == nullptr ? std::span<const double>{} : std::span<const double>(runs_->values);
  }

  /// cumulative_counts()[k] = #samples <= values()[k]: strictly increasing,
  /// and the last entry is size().
  [[nodiscard]] std::span<const std::uint32_t> cumulative_counts() const noexcept {
    return runs_ == nullptr ? std::span<const std::uint32_t>{}
                            : std::span<const std::uint32_t>(runs_->cum);
  }

  /// Nearest-rank quantile (see quantile.hpp). Distribution must be non-empty.
  [[nodiscard]] double quantile(double q) const;

  /// Linear-interpolation quantile.
  [[nodiscard]] double quantile_interpolated(double q) const;

  /// P(X <= x): fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;

  /// P(X > x): the false-positive rate of a detector thresholded at x.
  [[nodiscard]] double exceedance(double x) const;

  /// Batched upper-bound ranks: out[j] = #samples <= xs[j], for consumers
  /// that post-process ranks themselves (e.g. AttackModel::mean_fn and
  /// hids::naive_detection_curve). An ascending batch is answered by one
  /// merge-scan over the run values (stats::kernels::rank_sorted), any
  /// other order by one binary search per query.
  void rank_batch(std::span<const double> xs, std::span<std::uint32_t> out) const;

  /// P(X + shift <= t): miss probability of an additive attack of size
  /// `shift` against threshold `t` (the paper's FN = P(g + b < T); with
  /// integer bin counts the <= / < distinction only matters at exact
  /// threshold values, where alarms fire strictly above T).
  [[nodiscard]] double shifted_cdf(double shift, double t) const;

  /// Largest additive shift b such that P(X + b <= t) >= target_mass, i.e.
  /// the mimicry attacker's maximal hidden traffic for evasion probability
  /// `target_mass` against threshold `t`. Returns 0 if even b = 0 fails.
  [[nodiscard]] double max_hidden_shift(double t, double target_mass) const;

  /// Merges several distributions into the pooled (global) distribution the
  /// paper's homogeneous policy builds at the central console: the parts'
  /// (value, count) runs concatenated, sorted by value and coalesced.
  [[nodiscard]] static EmpiricalDistribution merge(
      std::span<const EmpiricalDistribution> parts);

 private:
  struct Runs {
    std::vector<double> values;       ///< ascending, distinct
    std::vector<std::uint32_t> cum;   ///< cum[k] = #samples <= values[k]
  };

  /// #samples <= x.
  [[nodiscard]] std::uint32_t rank(double x) const noexcept;
  /// The sample at 0-based position i of the ascending sample order.
  [[nodiscard]] double sample_at(std::size_t i) const noexcept;

  std::shared_ptr<const Runs> runs_;  ///< null when empty
};

}  // namespace monohids::stats
