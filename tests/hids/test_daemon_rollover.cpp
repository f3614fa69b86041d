// Week-rollover regression: the daemon's incrementally re-derived thresholds
// after N simulated weeks must match the batch-derived thresholds on the
// same training window — nearest-rank quantiles over whole week slices for
// WeeklyRollover, the sliding-window quantile for Rolling mode. Also pins
// the warm-up contract (week 0 never alarms), the strict value>threshold
// alarm predicate and the percentile check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "hids/daemon.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"

namespace monohids::hids {
namespace {

constexpr std::uint32_t kWeeks = 4;

const trace::UserProfile& fixture_user() {
  static const auto users = [] {
    trace::PopulationConfig pop;
    pop.user_count = 10;
    pop.seed = 99;
    return trace::generate_population(pop);
  }();
  return users[5];
}

const std::vector<net::PacketRecord>& fixture_packets() {
  static const auto packets = [] {
    const trace::TraceGenerator generator{trace::GeneratorConfig{}};
    return generator.generate_packets(fixture_user(), 0, kWeeks * util::kMicrosPerWeek);
  }();
  return packets;
}

DaemonConfig fixture_config() {
  DaemonConfig config;
  config.monitored = fixture_user().address;
  config.user_id = fixture_user().user_id;
  config.pipeline.horizon = kWeeks * util::kMicrosPerWeek;
  config.deliver_inline = true;
  return config;
}

DaemonResult run(const DaemonConfig& config) {
  const std::vector<net::PacketRecord>& packets = fixture_packets();
  Daemon daemon(config);
  constexpr std::size_t kBatch = 8192;
  for (std::size_t off = 0; off < packets.size(); off += kBatch) {
    daemon.on_batch(std::span<const net::PacketRecord>(
        packets.data() + off, std::min(kBatch, packets.size() - off)));
  }
  return daemon.finish();
}

TEST(DaemonRollover, EveryWeeklyThresholdMatchesTheBatchQuantile) {
  // The daemon trains on week_slice of its sealed live matrix, so the
  // scan's week boundaries (bin / bins_per_week) must be week_slice's on
  // every grid. 5-minute bins divide a week (2,016 bins). 13-minute bins
  // do not: a week is 775 bins with 5 minutes left over, so the four-week
  // horizon's 3,102 bins end in a partial fifth week and roll over once
  // more.
  for (const std::uint64_t minutes : {15, 5, 13}) {
    DaemonConfig config = fixture_config();
    config.pipeline.grid = util::BinGrid::minutes(minutes);
    const DaemonResult result = run(config);
    const auto batch =
        features::extract_features(config.monitored, fixture_packets(), config.pipeline);
    const std::uint64_t bins_per_week = util::kMicrosPerWeek / config.pipeline.grid.width();
    const std::uint64_t total_bins =
        batch.matrix.of(features::FeatureKind::TcpConnections).values().size();
    const auto weeks =
        static_cast<std::uint32_t>((total_bins + bins_per_week - 1) / bins_per_week);
    ASSERT_EQ(weeks, minutes == 13 ? kWeeks + 1 : kWeeks) << minutes << "-minute bins";

    ASSERT_EQ(result.rollovers.size(), weeks - 1) << minutes << "-minute bins";
    for (std::uint32_t w = 1; w < weeks; ++w) {
      const ThresholdUpdate& update = result.rollovers[w - 1];
      EXPECT_EQ(update.week, w);
      for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
        const auto slice = batch.matrix.of(features::kAllFeatures[i]).week_slice(w - 1);
        ASSERT_EQ(slice.size(), bins_per_week);
        EXPECT_EQ(update.thresholds[i],
                  stats::quantile_nearest_rank(slice, config.percentile))
            << minutes << "-minute bins, week " << w << " "
            << features::name_of(features::kAllFeatures[i]);
      }
    }
    EXPECT_EQ(result.stats.rollovers, weeks - 1);
  }
}

TEST(DaemonRollover, WarmupWeekNeverAlarms) {
  const DaemonConfig config = fixture_config();
  const DaemonResult result = run(config);
  const std::uint64_t bins_per_week =
      util::kMicrosPerWeek / config.pipeline.grid.width();
  for (const Alert& alert : result.alerts) {
    EXPECT_GE(alert.bin, bins_per_week) << "alarm during the warm-up week";
    EXPECT_GT(alert.observed, alert.threshold) << "alarm predicate must be strict >";
    EXPECT_TRUE(std::isfinite(alert.threshold));
  }
}

TEST(DaemonRollover, LiveThresholdSurfaceTracksTheLatestRollover) {
  const DaemonConfig config = fixture_config();
  Daemon daemon(config);
  // Warm-up: before any rollover the scrape surface reports +infinity.
  for (features::FeatureKind f : features::kAllFeatures) {
    EXPECT_TRUE(std::isinf(daemon.threshold(f)));
  }
  const auto& packets = fixture_packets();
  daemon.on_batch(packets);
  EXPECT_EQ(daemon.current_week(), kWeeks - 1);
  const DaemonResult result = daemon.finish();
  ASSERT_EQ(result.rollovers.size(), kWeeks - 1);
}

TEST(DaemonRollover, RollingThresholdAfterNWeeksMatchesTheBatchWindow) {
  // DaemonConfig::percentile drives Rolling mode too: 0.95 must give the
  // window's 95th percentile, not the default's 99th.
  for (const double percentile : {0.99, 0.95}) {
    DaemonConfig config = fixture_config();
    config.mode = ThresholdMode::Rolling;
    config.percentile = percentile;
    config.rolling.exclude_alarms = false;  // pure sliding window: independent math
    Daemon daemon(config);
    daemon.on_batch(fixture_packets());
    (void)daemon.finish();  // scans every trailing bin through the learner
    const auto batch =
        features::extract_features(config.monitored, fixture_packets(), config.pipeline);

    // After N weeks the live threshold surface must equal the nearest-rank
    // quantile of the last window_bins bins of the batch series — the
    // batch-derived value on the identical window.
    const auto total_bins =
        batch.matrix.of(features::FeatureKind::TcpConnections).values().size();
    ASSERT_GE(total_bins, config.rolling.window_bins);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto series = batch.matrix.of(features::kAllFeatures[i]).values();
      const std::vector<double> window(
          series.end() - static_cast<std::ptrdiff_t>(config.rolling.window_bins),
          series.end());
      const double expected = stats::quantile_nearest_rank(window, config.percentile);
      EXPECT_EQ(daemon.threshold(features::kAllFeatures[i]), expected)
          << "p" << percentile << " " << features::name_of(features::kAllFeatures[i]);
    }
  }
}

TEST(DaemonRollover, PercentileOutsideTheOpenUnitIntervalIsRejectedInBothModes) {
  for (const ThresholdMode mode : {ThresholdMode::WeeklyRollover, ThresholdMode::Rolling}) {
    for (const double bad : {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
      DaemonConfig config = fixture_config();
      config.mode = mode;
      config.percentile = bad;
      EXPECT_THROW(Daemon{config}, PreconditionError)
          << "percentile " << bad << " in mode " << static_cast<int>(mode);
    }
  }
}

}  // namespace
}  // namespace monohids::hids
