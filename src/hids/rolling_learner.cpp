#include "hids/rolling_learner.hpp"

#include <cmath>

#include "stats/empirical.hpp"
#include "util/error.hpp"

namespace monohids::hids {

RollingThresholdLearner::RollingThresholdLearner(double percentile, RollingLearnerConfig config)
    : percentile_(percentile), config_(config) {
  MONOHIDS_EXPECT(percentile_ > 0.0 && percentile_ < 1.0, "percentile must be in (0,1)");
  MONOHIDS_EXPECT(config_.window_bins > 0, "window must be non-empty");
  MONOHIDS_EXPECT(config_.warmup_bins > 0, "warmup must be positive");
}

bool RollingThresholdLearner::observe(double bin_count) {
  MONOHIDS_EXPECT(std::isfinite(bin_count), "learner bin counts must be finite");
  const bool alarmed = bin_count > threshold_;
  if (alarmed) ++alarms_;
  ++observed_;
  if (alarmed && config_.exclude_alarms) return true;

  if (window_.size() < config_.window_bins) {
    window_.push_back(bin_count);
  } else {
    window_[next_] = bin_count;
    next_ = (next_ + 1) % config_.window_bins;
  }
  if (window_.size() >= config_.warmup_bins) {
    threshold_ = stats::EmpiricalDistribution(window_).quantile(percentile_);
  }
  return alarmed;
}

}  // namespace monohids::hids
