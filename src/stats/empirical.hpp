// Empirical distribution of a traffic feature.
//
// The paper treats each time-bin count as a sample of the per-host feature
// distribution P(g_i^j) and derives everything — thresholds, false-positive
// rates P(g > T), mimicry head-room — from the empirical CDF. This class is
// that CDF: it answers quantile / (c)CDF / convolution-style queries exactly
// over a sorted sample sequence.
//
// Ownership model: the sorted samples live in an immutable, shared arena
// (a reference-counted vector). Copying an EmpiricalDistribution copies a
// pointer + span, never the samples, so the same per-user distributions can
// be handed to many experiments zero-copy (the sim::AnalysisCache relies on
// this). Non-owning views over externally sorted buffers are available via
// view_of_sorted() for transient pooled distributions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace monohids::stats {

class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;

  /// Builds from raw samples (moved into the arena and sorted). Samples
  /// must be finite.
  explicit EmpiricalDistribution(std::vector<double> samples);

  /// Builds from already-sorted samples without re-sorting (moved into the
  /// arena). The caller vouches for ascending order; debug builds assert it.
  [[nodiscard]] static EmpiricalDistribution from_sorted(std::vector<double> sorted);

  /// Non-owning view over an externally owned ascending buffer. The view
  /// answers every query of an owning distribution but holds no arena: it
  /// is valid only while `sorted` outlives it and is not reallocated or
  /// reordered. Used for scratch pooled distributions whose backing buffer
  /// is reused (see hids::assign_thresholds). Pass `with_rank_table` when
  /// the view is about to absorb a dense rank workload (threshold sweeps);
  /// the O(n + K) table build is amortized by O(1) lookups afterwards.
  [[nodiscard]] static EmpiricalDistribution view_of_sorted(std::span<const double> sorted,
                                                            bool with_rank_table = false);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  /// True when this instance (co-)owns its samples; false for views.
  [[nodiscard]] bool owns_samples() const noexcept { return storage_ != nullptr || sorted_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double stddev() const;

  /// Sorted sample view (ascending).
  [[nodiscard]] std::span<const double> samples() const noexcept { return sorted_; }

  /// Nearest-rank quantile (see quantile.hpp). Distribution must be non-empty.
  [[nodiscard]] double quantile(double q) const;

  /// Linear-interpolation quantile.
  [[nodiscard]] double quantile_interpolated(double q) const;

  /// P(X <= x): fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;

  /// P(X > x): the false-positive rate of a detector thresholded at x.
  [[nodiscard]] double exceedance(double x) const;

  /// Batched exceedance: out[j] = exceedance(xs[j]) for the whole query
  /// batch at once. Answered by one merge-scan over the arena when `xs` is
  /// ascending (O(n + T) for a threshold sweep instead of O(T log n)) and
  /// by branchless vectorized rank queries otherwise (stats::kernels). The
  /// results are bit-identical to per-call exceedance() on every SIMD
  /// back-end — ranks are exact integers and the 1.0 - rank/n arithmetic is
  /// the same operation the scalar path performs.
  void exceedance_batch(std::span<const double> xs, std::span<double> out) const;

  /// Batched upper-bound ranks: out[j] = #samples <= xs[j], the integer
  /// primitive behind exceedance_batch (exposed for consumers that
  /// post-process ranks themselves, e.g. AttackModel::mean_fn_batch).
  void rank_batch(std::span<const double> xs, std::span<std::uint32_t> out) const;

  /// Cumulative rank table cum[k] = #samples <= k, present when the samples
  /// are small integer counts (stats::kernels::build_rank_table) and the
  /// distribution owns them or is a view_of_sorted(..., true); empty
  /// otherwise. Each rank query against it is one O(1) load with the same
  /// exact integer result as a binary search over the samples.
  [[nodiscard]] std::span<const std::uint32_t> rank_table() const noexcept {
    return rank_table_ != nullptr ? std::span<const std::uint32_t>(*rank_table_)
                                  : std::span<const std::uint32_t>{};
  }

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
  /// paper's homogeneous policy builds at the central console. Implemented
  /// as a k-way merge of the parts' already-sorted samples (no re-sort).
  [[nodiscard]] static EmpiricalDistribution merge(
      std::span<const EmpiricalDistribution> parts);

 private:
  struct sorted_tag {};
  EmpiricalDistribution(std::vector<double> sorted, sorted_tag);

  void maybe_build_rank_table();

  std::shared_ptr<const std::vector<double>> storage_;  ///< arena (null for views)
  std::span<const double> sorted_;                      ///< ascending samples
  /// Shared like the arena: copies reuse one table. Null when the samples
  /// are not small integer counts or the table was never requested.
  std::shared_ptr<const std::vector<std::uint32_t>> rank_table_;
};

/// K-way merges ascending spans into `out` (cleared first, capacity reused
/// across calls). The result is the ascending multiset union of the parts —
/// element-for-element what sorting their concatenation produces.
void merge_sorted_spans(std::span<const std::span<const double>> parts,
                        std::vector<double>& out);

}  // namespace monohids::stats
