#include "hids/rolling_learner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <vector>

#include "stats/quantile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::hids {
namespace {

constexpr double kSmallPercentile = 0.9;

RollingLearnerConfig small_config() {
  RollingLearnerConfig config;
  config.window_bins = 100;
  config.warmup_bins = 10;
  return config;
}

TEST(RollingLearner, NeverAlarmsDuringWarmup) {
  RollingThresholdLearner learner(kSmallPercentile, small_config());
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(learner.observe(1e9));  // even absurd traffic: still learning
  }
  EXPECT_TRUE(std::isinf(learner.threshold()));
}

TEST(RollingLearner, LearnsTheWindowPercentile) {
  RollingLearnerConfig config = small_config();
  config.exclude_alarms = false;  // ascending feed would otherwise self-censor
  RollingThresholdLearner learner(kSmallPercentile, config);
  for (int i = 1; i <= 100; ++i) learner.observe(static_cast<double>(i));
  // 90th percentile of 1..100 = 90.
  EXPECT_DOUBLE_EQ(learner.threshold(), 90.0);
}

TEST(RollingLearner, WindowSlidesAndForgets) {
  RollingLearnerConfig config = small_config();
  config.exclude_alarms = false;
  RollingThresholdLearner learner(kSmallPercentile, config);
  for (int i = 0; i < 100; ++i) learner.observe(10.0);
  EXPECT_DOUBLE_EQ(learner.threshold(), 10.0);
  // A regime change: after 100 more bins at the new level the old data is
  // fully forgotten.
  for (int i = 0; i < 100; ++i) learner.observe(50.0);
  EXPECT_DOUBLE_EQ(learner.threshold(), 50.0);
  EXPECT_EQ(learner.window_size(), 100u);
}

TEST(RollingLearner, AlarmsAgainstThePreUpdateThreshold) {
  RollingLearnerConfig config = small_config();
  config.exclude_alarms = false;
  RollingThresholdLearner learner(kSmallPercentile, config);
  for (int i = 0; i < 50; ++i) learner.observe(10.0);
  EXPECT_TRUE(learner.observe(100.0));
  EXPECT_FALSE(learner.observe(5.0));
  EXPECT_EQ(learner.alarms(), 1u);
  EXPECT_EQ(learner.observed(), 52u);
}

TEST(RollingLearner, PoisoningGuardResistsRampCampaign) {
  // An attacker ramps traffic hoping the detector learns to accept it.
  // With the guard, alarming bins never enter the window, so the threshold
  // stays anchored to genuine behavior and the ramp keeps alarming.
  RollingLearnerConfig guarded = small_config();
  guarded.exclude_alarms = true;
  RollingLearnerConfig naive = small_config();
  naive.exclude_alarms = false;

  RollingThresholdLearner with_guard(kSmallPercentile, guarded);
  RollingThresholdLearner without_guard(kSmallPercentile, naive);
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const double benign = 8.0 + 4.0 * rng.uniform01();
    with_guard.observe(benign);
    without_guard.observe(benign);
  }
  // Stepped plateaus: raise the level, hold long enough for a naive
  // sliding window to absorb it, raise again. (A continuous ramp would
  // always outrun a lagging quantile; plateaus are how real poisoning
  // works.)
  double attack = 15.0;
  std::uint64_t guard_alarms = 0, naive_alarms = 0;
  for (int step = 0; step < 5; ++step) {
    for (int i = 0; i < 120; ++i) {
      const double benign = 8.0 + 4.0 * rng.uniform01();
      if (with_guard.observe(benign + attack)) ++guard_alarms;
      if (without_guard.observe(benign + attack)) ++naive_alarms;
    }
    attack *= 1.5;
  }
  // The guarded learner keeps firing through every plateau; the naive one
  // absorbs each level within ~a tenth of its window and goes quiet.
  EXPECT_GT(guard_alarms, 550u);
  EXPECT_LT(naive_alarms, guard_alarms / 2);
  // And the naive learner's threshold has been dragged far above benign.
  EXPECT_GT(without_guard.threshold(), 3.0 * with_guard.threshold());
}

TEST(RollingLearner, InvalidConfigsAreErrors) {
  RollingLearnerConfig config;
  config.window_bins = 0;
  EXPECT_THROW((RollingThresholdLearner{0.99, config}), PreconditionError);
  for (const double bad : {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(RollingThresholdLearner{bad}, PreconditionError) << bad;
  }
  config = RollingLearnerConfig{};
  config.warmup_bins = 0;
  EXPECT_THROW((RollingThresholdLearner{0.99, config}), PreconditionError);
}

TEST(RollingLearner, NonFiniteBinsAreAnError) {
  RollingLearnerConfig config = small_config();
  config.exclude_alarms = false;
  RollingThresholdLearner learner(kSmallPercentile, config);
  for (int i = 1; i <= 10; ++i) learner.observe(static_cast<double>(i));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(learner.observe(bad), PreconditionError) << bad;
  }
  // A rejected bin leaves the learner as it was.
  EXPECT_EQ(learner.window_size(), 10u);
  EXPECT_EQ(learner.observed(), 10u);
  EXPECT_DOUBLE_EQ(learner.threshold(), 9.0);
}

TEST(RollingLearner, ThresholdIsTheWindowQuantileAfterEveryBin) {
  // The cached threshold is refreshed exactly when a bin enters the ring:
  // after every bin it equals the nearest-rank quantile of the last
  // window_bins learned bins, through many wraps of the ring, and an
  // excluded (alarming) bin leaves it unchanged.
  RollingLearnerConfig config = small_config();
  config.window_bins = 37;
  for (const bool exclude : {false, true}) {
    config.exclude_alarms = exclude;
    RollingThresholdLearner learner(kSmallPercentile, config);
    std::deque<double> reference;
    util::Xoshiro256 rng(11);
    for (int i = 0; i < 500; ++i) {
      const double bin = static_cast<double>(rng() % 40) + (i % 97 == 96 ? 1000.0 : 0.0);
      const double before = learner.threshold();
      const bool alarmed = learner.observe(bin);
      ASSERT_EQ(alarmed, bin > before);
      if (alarmed && exclude) {
        ASSERT_EQ(learner.threshold(), before) << "bin " << i;
        continue;
      }
      reference.push_back(bin);
      if (reference.size() > config.window_bins) reference.pop_front();
      const std::vector<double> window(reference.begin(), reference.end());
      const double expected = window.size() < config.warmup_bins
                                  ? std::numeric_limits<double>::infinity()
                                  : stats::quantile_nearest_rank(window, kSmallPercentile);
      ASSERT_EQ(learner.threshold(), expected) << "bin " << i << " exclude " << exclude;
      ASSERT_EQ(learner.window_size(), reference.size());
    }
  }
}

TEST(RollingLearner, StationaryTrafficYieldsTargetAlarmRate) {
  RollingLearnerConfig config;
  config.window_bins = 672;
  config.warmup_bins = 96;
  config.exclude_alarms = false;
  RollingThresholdLearner learner(0.99, config);
  util::Xoshiro256 rng(9);
  std::uint64_t alarms = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (learner.observe(rng.uniform01() * 100.0)) ++alarms;
  }
  const double rate = static_cast<double>(alarms) / n;
  EXPECT_GT(rate, 0.004);
  EXPECT_LT(rate, 0.02);
}

}  // namespace
}  // namespace monohids::hids
