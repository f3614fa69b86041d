// Week-rollover regression: the daemon's incrementally re-derived thresholds
// after N simulated weeks must match the batch-derived thresholds on the
// same training window — nearest-rank quantiles over whole week slices for
// WeeklyRollover, the sliding-window quantile for Rolling mode. Also pins
// the warm-up contract (week 0 never alarms) and the strict value>threshold
// alarm predicate, and checks the streaming estimators (GK, P2) in rank
// space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>
#include <string>
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

/// How far `value` sits from the nearest-rank `percentile` of `slice`, in
/// ranks: the value occupies ranks (#below, #below + #equal], and the error
/// is the distance from the target rank ceil(percentile * n) to that span
/// (0 when the span covers it).
double rank_error(std::span<const double> slice, double value, double percentile) {
  const double target = std::ceil(percentile * static_cast<double>(slice.size()));
  const auto below = static_cast<double>(
      std::count_if(slice.begin(), slice.end(), [&](double x) { return x < value; }));
  const auto at_most = static_cast<double>(
      std::count_if(slice.begin(), slice.end(), [&](double x) { return x <= value; }));
  return std::max({0.0, target - at_most, below + 1 - target});
}

/// Runs the fixture with `kind` and calls check(rank_error, n, what) for
/// every weekly threshold against its training week.
template <typename Check>
void for_each_rank_error(EstimatorKind kind, Check&& check) {
  DaemonConfig config = fixture_config();
  config.estimator = kind;
  const DaemonResult result = run(config);
  const auto batch =
      features::extract_features(config.monitored, fixture_packets(), config.pipeline);
  ASSERT_EQ(result.rollovers.size(), kWeeks - 1);
  for (const ThresholdUpdate& update : result.rollovers) {
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto slice =
          batch.matrix.of(features::kAllFeatures[i]).week_slice(update.week - 1);
      ASSERT_TRUE(std::isfinite(update.thresholds[i]));
      check(rank_error(slice, update.thresholds[i], config.percentile),
            static_cast<double>(slice.size()),
            "week " + std::to_string(update.week) + " " +
                std::string(features::name_of(features::kAllFeatures[i])));
    }
  }
}

TEST(DaemonRollover, GkThresholdsKeepTheirRankGuarantee) {
  // Each weekly GK threshold must sit within eps * n ranks of the exact
  // nearest-rank p99 of the training week (GkSketch's guarantee).
  const double eps = fixture_config().gk_epsilon;
  for_each_rank_error(EstimatorKind::Gk, [&](double error, double n, const std::string& what) {
    EXPECT_LE(error, eps * n) << what;
  });
}

TEST(DaemonRollover, P2ThresholdsStayInTheirRankBand) {
  // P2 has no worst-case guarantee: its markers track their desired ranks
  // to within one position, but the estimate is an interpolated marker
  // height, not an order statistic. The band is therefore operational:
  // 2 * (1 - p) * n ranks of the nearest-rank p99 keeps the threshold in
  // the training week's top 3(1 - p) of bins, so a P2 learner spends at
  // most three times the false-alarm budget the percentile promises. It is
  // checked in rank space, where it does not depend on how far apart a
  // week's top bins lie. (Measured worst on this fixture: 7 of 672 ranks.)
  const double p = fixture_config().percentile;
  for_each_rank_error(EstimatorKind::P2, [&](double error, double n, const std::string& what) {
    EXPECT_LE(error, 2.0 * (1.0 - p) * n) << what;
  });
}

}  // namespace
}  // namespace monohids::hids
