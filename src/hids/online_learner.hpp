// On-host threshold learning.
//
// The paper's full-diversity policy computes thresholds "all done locally"
// on the end host. This learner keeps each feature's bins as runs: the
// ascending distinct values and a count per value. Traffic-count bins
// repeat heavily (a synthetic host-week of 672 15-minute bins holds 26-64
// distinct values per feature on average, at most 581; 2,016 5-minute bins
// at most 992), so the runs take less memory than a buffer of the bins,
// and the threshold is exact: bit-identical to
// stats::EmpiricalDistribution(bins).quantile(percentile).
// bench/ablation_streaming reports the memory and threshold error next to
// the fleet's 24-point row (sim::grid_row).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "features/time_series.hpp"

namespace monohids::hids {

class OnlineThresholdLearner {
 public:
  /// Learns the `percentile` threshold of each feature.
  explicit OnlineThresholdLearner(double percentile);

  /// Feeds one finished bin's count for a feature. The count must be finite
  /// (PreconditionError otherwise, as for EmpiricalDistribution).
  void observe(features::FeatureKind feature, double bin_count);

  /// Feeds a whole series (e.g. a training week) for a feature.
  void observe_series(features::FeatureKind feature, std::span<const double> bins);

  /// Nearest-rank percentile of the observed bins; requires at least one
  /// observation.
  [[nodiscard]] double threshold(features::FeatureKind feature) const;

  [[nodiscard]] std::uint64_t observations(features::FeatureKind feature) const;
  [[nodiscard]] double percentile() const noexcept { return percentile_; }

  /// Resident memory of the learner and its runs, in bytes.
  [[nodiscard]] std::size_t memory_footprint_bytes() const;

 private:
  struct Run {
    double value;  ///< a zero run holds +0.0 whichever zeros it counts
    std::uint64_t count;
  };
  struct PerFeature {
    std::vector<Run> runs;  ///< ascending by value, values distinct
    std::uint64_t count = 0;
  };

  double percentile_;
  std::array<PerFeature, features::kFeatureCount> state_;
};

}  // namespace monohids::hids
