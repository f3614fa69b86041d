// Rolling (sliding-window) threshold learning.
//
// The paper re-learns thresholds from the previous whole week and notes
// they are not stable; a deployed agent can instead maintain a sliding
// window over the most recent N bins and refresh its threshold
// continuously. This learner also supports an update guard ("freeze"):
// bins that alarmed are excluded from learning, so an attacker cannot
// gradually teach the detector to accept its traffic (threshold poisoning —
// exactly what the ramped Campaign in campaign.hpp attempts).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace monohids::hids {

struct RollingLearnerConfig {
  std::size_t window_bins = 672;   ///< one week of 15-minute bins
  /// Exclude alarming bins from the learning window (poisoning guard).
  bool exclude_alarms = true;
  /// Minimum observations before the threshold is considered trained;
  /// until then threshold() reports +infinity (never alarm) so a fresh
  /// host doesn't page IT while it learns.
  std::size_t warmup_bins = 96;
};

class RollingThresholdLearner {
 public:
  /// Learns the `percentile` threshold of the window (in (0,1), as for
  /// PercentileHeuristic).
  explicit RollingThresholdLearner(double percentile, RollingLearnerConfig config = {});

  /// Feeds one finished bin (finite); returns true if that bin alarmed
  /// against the threshold in force *before* the update (detection happens
  /// with the old threshold, then learning).
  bool observe(double bin_count);

  /// Current threshold: EmpiricalDistribution(window).quantile(percentile),
  /// refreshed whenever a bin enters the window; +infinity during warm-up.
  [[nodiscard]] double threshold() const noexcept { return threshold_; }

  [[nodiscard]] std::size_t window_size() const noexcept { return window_.size(); }
  [[nodiscard]] std::uint64_t alarms() const noexcept { return alarms_; }
  [[nodiscard]] std::uint64_t observed() const noexcept { return observed_; }
  [[nodiscard]] const RollingLearnerConfig& config() const noexcept { return config_; }

 private:
  double percentile_;
  RollingLearnerConfig config_;
  /// The learned bins of the window, as a ring: once full, window_[next_]
  /// is the oldest. A quantile needs the multiset, not the order.
  std::vector<double> window_;
  std::size_t next_ = 0;
  double threshold_ = std::numeric_limits<double>::infinity();
  std::uint64_t alarms_ = 0;
  std::uint64_t observed_ = 0;
};

}  // namespace monohids::hids
