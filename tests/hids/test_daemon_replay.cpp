// Differential replay: the live daemon must be bit-identical to the batch
// pipeline. Same trace through hids::Daemon (any batch partition, inline or
// worker thread, any queue depth) and through extract_features + nearest-rank
// week-k thresholds must yield byte-equal feature matrices, thresholds,
// alarm sets, and flow stats. This is the contract that makes the online
// agent trustworthy: a perf-motivated incremental path that drifts from the
// evaluated batch methodology is a different detector, not a faster one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "hids/daemon.hpp"
#include "stats/quantile.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "util/error.hpp"

namespace monohids::hids {
namespace {

constexpr std::uint32_t kWeeks = 2;

const trace::UserProfile& fixture_user() {
  static const auto users = [] {
    trace::PopulationConfig pop;
    pop.user_count = 10;
    pop.seed = 4242;
    return trace::generate_population(pop);
  }();
  return users[3];
}

const std::vector<net::PacketRecord>& fixture_packets() {
  static const auto packets = [] {
    const trace::TraceGenerator generator{trace::GeneratorConfig{}};
    return generator.generate_packets(fixture_user(), 0,
                                      kWeeks * util::kMicrosPerWeek);
  }();
  return packets;
}

DaemonConfig fixture_config() {
  DaemonConfig config;
  config.monitored = fixture_user().address;
  config.user_id = fixture_user().user_id;
  config.pipeline.horizon = kWeeks * util::kMicrosPerWeek;
  return config;
}

DaemonResult run_daemon(DaemonConfig config, std::span<const net::PacketRecord> packets,
                        std::size_t batch) {
  Daemon daemon(config);
  for (std::size_t off = 0; off < packets.size(); off += batch) {
    daemon.on_batch(packets.subspan(off, std::min(batch, packets.size() - off)));
  }
  return daemon.finish();
}

void expect_same_matrix(const features::FeatureMatrix& a, const features::FeatureMatrix& b) {
  for (features::FeatureKind f : features::kAllFeatures) {
    const auto va = a.of(f).values();
    const auto vb = b.of(f).values();
    ASSERT_EQ(va.size(), vb.size()) << features::name_of(f);
    for (std::size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i], vb[i]) << features::name_of(f) << " bin " << i;
    }
  }
}

void expect_same_alerts(const std::vector<Alert>& a, const std::vector<Alert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user_id, b[i].user_id) << "alert " << i;
    EXPECT_EQ(a[i].feature, b[i].feature) << "alert " << i;
    EXPECT_EQ(a[i].bin, b[i].bin) << "alert " << i;
    EXPECT_EQ(a[i].bin_start, b[i].bin_start) << "alert " << i;
    EXPECT_EQ(a[i].observed, b[i].observed) << "alert " << i;
    EXPECT_EQ(a[i].threshold, b[i].threshold) << "alert " << i;
  }
}

TEST(DaemonReplay, InlineDaemonIsBitIdenticalToTheBatchPipeline) {
  DaemonConfig config = fixture_config();
  config.deliver_inline = true;
  const DaemonResult live = run_daemon(config, fixture_packets(), 4096);

  const auto batch =
      features::extract_features(config.monitored, fixture_packets(), config.pipeline);
  expect_same_matrix(live.pipeline.matrix, batch.matrix);
  EXPECT_EQ(live.pipeline.flow_stats.flows_created, batch.flow_stats.flows_created);
  EXPECT_EQ(live.pipeline.flow_stats.syn_packets, batch.flow_stats.syn_packets);
  EXPECT_EQ(live.pipeline.flow_stats.flows_ended_flush, batch.flow_stats.flows_ended_flush);

  // Thresholds: rollover w trains on week w-1 exactly like the batch
  // nearest-rank quantile over the same week slice — equal as doubles.
  const std::uint64_t bins_per_week =
      util::kMicrosPerWeek / config.pipeline.grid.width();
  ASSERT_EQ(live.rollovers.size(), kWeeks - 1);
  for (const ThresholdUpdate& update : live.rollovers) {
    ASSERT_GE(update.week, 1u);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto slice =
          batch.matrix.of(features::kAllFeatures[i]).week_slice(update.week - 1);
      EXPECT_EQ(update.thresholds[i],
                stats::quantile_nearest_rank(slice, config.percentile))
          << "week " << update.week << " " << features::name_of(features::kAllFeatures[i]);
    }
  }

  // Alarm set: recompute from the batch matrix with the batch thresholds.
  std::vector<Alert> expected;
  const std::uint64_t total_bins =
      batch.matrix.of(features::FeatureKind::TcpConnections).values().size();
  for (std::uint64_t bin = bins_per_week; bin < total_bins; ++bin) {
    const auto week = static_cast<std::uint32_t>(bin / bins_per_week);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto& series = batch.matrix.of(features::kAllFeatures[i]);
      const double threshold =
          stats::quantile_nearest_rank(series.week_slice(week - 1), config.percentile);
      if (series.values()[bin] > threshold) {
        Alert alert;
        alert.user_id = config.user_id;
        alert.feature = features::kAllFeatures[i];
        alert.bin = bin;
        alert.bin_start = config.pipeline.grid.bin_start(bin);
        alert.observed = series.values()[bin];
        alert.threshold = threshold;
        expected.push_back(alert);
      }
    }
  }
  ASSERT_FALSE(expected.empty()) << "fixture produced no alarms; test is vacuous";
  expect_same_alerts(live.alerts, expected);
}

TEST(DaemonReplay, BatchPartitionDoesNotChangeTheResult) {
  DaemonConfig config = fixture_config();
  config.deliver_inline = true;
  const DaemonResult reference = run_daemon(config, fixture_packets(), 1000);

  for (const std::size_t batch : {std::size_t{137}, std::size_t{4096}, std::size_t{65536},
                                  fixture_packets().size()}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const DaemonResult other = run_daemon(config, fixture_packets(), batch);
    expect_same_matrix(other.pipeline.matrix, reference.pipeline.matrix);
    expect_same_alerts(other.alerts, reference.alerts);
    EXPECT_EQ(other.stats.packets_ingested, reference.stats.packets_ingested);
    EXPECT_EQ(other.stats.bins_completed, reference.stats.bins_completed);
    EXPECT_EQ(other.stats.rollovers, reference.stats.rollovers);
  }
}

TEST(DaemonReplay, WorkerThreadAndQueueDepthDoNotChangeTheResult) {
  DaemonConfig inline_config = fixture_config();
  inline_config.deliver_inline = true;
  const DaemonResult reference = run_daemon(inline_config, fixture_packets(), 4096);

  for (const std::size_t capacity : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    SCOPED_TRACE("queue=" + std::to_string(capacity));
    DaemonConfig config = fixture_config();
    config.deliver_inline = false;
    config.queue_capacity = capacity;
    const DaemonResult other = run_daemon(config, fixture_packets(), 4096);
    expect_same_matrix(other.pipeline.matrix, reference.pipeline.matrix);
    expect_same_alerts(other.alerts, reference.alerts);
    EXPECT_EQ(other.stats.batches_dropped, 0u) << "on_batch is lossless";
    EXPECT_EQ(other.stats.packets_ingested, reference.stats.packets_ingested);
  }
}

TEST(DaemonReplay, ConsoleAccountingMatchesTheEmittedAlerts) {
  DaemonConfig config = fixture_config();
  config.deliver_inline = true;
  const DaemonResult result = run_daemon(config, fixture_packets(), 4096);
  EXPECT_EQ(result.console.total_alerts(), result.alerts.size());
  EXPECT_EQ(result.console.alerts_of_user(config.user_id), result.alerts.size());
  std::uint64_t by_week = 0;
  for (std::uint32_t w = 0; w <= kWeeks; ++w) by_week += result.console.alerts_in_week(w);
  EXPECT_EQ(by_week, result.alerts.size());
  EXPECT_GT(result.console.total_batches(), 0u);
}

TEST(DaemonReplay, LifecycleMisuseIsRejected) {
  DaemonConfig config = fixture_config();
  config.deliver_inline = true;
  Daemon daemon(config);
  daemon.on_batch(std::span<const net::PacketRecord>(fixture_packets().data(), 1000));
  (void)daemon.finish();
  EXPECT_THROW((void)daemon.finish(), PreconditionError);
  EXPECT_THROW(
      daemon.on_batch(std::span<const net::PacketRecord>(fixture_packets().data(), 10)),
      PreconditionError);
}

TEST(DaemonReplay, PausedDaemonDropsOffersDeterministically) {
  DaemonConfig config = fixture_config();
  config.deliver_inline = false;
  config.start_paused = true;
  config.queue_capacity = 2;
  Daemon daemon(config);

  const auto& packets = fixture_packets();
  const std::span<const net::PacketRecord> batch(packets.data(), 500);
  EXPECT_TRUE(daemon.offer(batch));
  EXPECT_TRUE(daemon.offer(batch.subspan(0, 300)));
  EXPECT_FALSE(daemon.offer(batch)) << "queue full: third offer must drop";

  const DaemonStats mid = daemon.stats();
  EXPECT_EQ(mid.batches_enqueued, 2u);
  EXPECT_EQ(mid.batches_dropped, 1u);
  EXPECT_EQ(mid.packets_dropped, 500u);
  EXPECT_EQ(mid.queue_peak, 2u);

  daemon.resume();
  const DaemonResult result = daemon.finish();
  // The two accepted batches repeat the same 500/300-packet prefix; the
  // repeat rewinds time, so its packets are skipped as out-of-order (all
  // except any sharing the boundary timestamp), never silently ingested.
  EXPECT_EQ(result.stats.packets_ingested + result.stats.packets_out_of_order, 800u);
  EXPECT_GE(result.stats.packets_ingested, 500u);
}

}  // namespace
}  // namespace monohids::hids
