// Week-rollover regression: the daemon's incrementally re-derived thresholds
// after N simulated weeks must match the batch-derived thresholds on the
// same training window — nearest-rank quantiles over whole week slices for
// WeeklyRollover, the sliding-window quantile for Rolling mode. Also pins
// the warm-up contract (week 0 never alarms) and the strict value>threshold
// alarm predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "hids/daemon.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"

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
  const DaemonConfig config = fixture_config();
  const DaemonResult result = run(config);
  const auto batch =
      features::extract_features(config.monitored, fixture_packets(), config.pipeline);

  ASSERT_EQ(result.rollovers.size(), kWeeks - 1);
  for (std::uint32_t w = 1; w < kWeeks; ++w) {
    const ThresholdUpdate& update = result.rollovers[w - 1];
    EXPECT_EQ(update.week, w);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto slice = batch.matrix.of(features::kAllFeatures[i]).week_slice(w - 1);
      EXPECT_EQ(update.thresholds[i],
                stats::quantile_nearest_rank(slice, config.percentile))
          << "week " << w << " " << features::name_of(features::kAllFeatures[i]);
    }
  }
  EXPECT_EQ(result.stats.rollovers, kWeeks - 1);
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
  DaemonConfig config = fixture_config();
  config.mode = ThresholdMode::Rolling;
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
    const double expected =
        stats::quantile_nearest_rank(window, config.rolling.percentile);
    EXPECT_EQ(daemon.threshold(features::kAllFeatures[i]), expected)
        << features::name_of(features::kAllFeatures[i]);
  }
}

}  // namespace
}  // namespace monohids::hids
