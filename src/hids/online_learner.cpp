#include "hids/online_learner.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace monohids::hids {

OnlineThresholdLearner::OnlineThresholdLearner(double percentile) : percentile_(percentile) {
  MONOHIDS_EXPECT(percentile > 0.0 && percentile < 1.0, "percentile must be in (0,1)");
}

void OnlineThresholdLearner::observe(features::FeatureKind feature, double bin_count) {
  MONOHIDS_EXPECT(std::isfinite(bin_count), "learner bin counts must be finite");
  PerFeature& s = state_[features::index_of(feature)];
  const auto it = std::lower_bound(s.runs.begin(), s.runs.end(), bin_count,
                                   [](const Run& r, double v) { return r.value < v; });
  if (it != s.runs.end() && it->value == bin_count) {
    ++it->count;
  } else {
    // -0.0 == +0.0, so a zero run is inserted once and stores +0.0.
    s.runs.insert(it, Run{bin_count == 0.0 ? 0.0 : bin_count, 1});
  }
  ++s.count;
}

void OnlineThresholdLearner::observe_series(features::FeatureKind feature,
                                            std::span<const double> bins) {
  for (double v : bins) observe(feature, v);
}

double OnlineThresholdLearner::threshold(features::FeatureKind feature) const {
  const PerFeature& s = state_[features::index_of(feature)];
  MONOHIDS_EXPECT(s.count > 0, "no observations for this feature yet");
  // The smallest value with at least ceil(p * n) bins <= it: the rank
  // arithmetic of EmpiricalDistribution::quantile, walked over the counts.
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(percentile_ * static_cast<double>(s.count)));
  std::uint64_t at_most = 0;
  for (const Run& r : s.runs) {
    at_most += r.count;
    if (at_most >= rank) return r.value;
  }
  return s.runs.back().value;  // rank <= n, so the walk always returns
}

std::uint64_t OnlineThresholdLearner::observations(features::FeatureKind feature) const {
  return state_[features::index_of(feature)].count;
}

std::size_t OnlineThresholdLearner::memory_footprint_bytes() const {
  std::size_t total = sizeof(*this);
  for (const auto& s : state_) total += s.runs.capacity() * sizeof(Run);
  return total;
}

}  // namespace monohids::hids
