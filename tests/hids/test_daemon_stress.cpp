// Concurrency stress for the live daemon, run under ThreadSanitizer in CI
// (gtest filter 'DaemonStress*'). Exercises the shared surfaces while the
// worker updates learners and crosses week rollovers: stats()/threshold()/
// current_week() scrapes, global metrics-registry snapshots and Prometheus
// rendering, offer() from competing producers. The assertions are
// conservation laws (every offered packet is ingested, skipped, or dropped)
// — the point of the test is the interleaving TSan observes.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "hids/daemon.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"

namespace monohids::hids {
namespace {

constexpr std::uint32_t kWeeks = 2;

const trace::UserProfile& fixture_user() {
  static const auto users = [] {
    trace::PopulationConfig pop;
    pop.user_count = 6;
    pop.seed = 31337;
    return trace::generate_population(pop);
  }();
  return users[2];
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

TEST(DaemonStress, ScrapersRaceTheWorkerAcrossAWeekRollover) {
  DaemonConfig config = fixture_config();
  config.queue_capacity = 4;  // small queue: the producer blocks and retries
  Daemon daemon(config);

  std::atomic<bool> done{false};
  std::vector<std::thread> scrapers;
  // Scraper 1: daemon state surfaces (stats snapshot, live thresholds,
  // current week) while the worker mutates them under its own lock.
  scrapers.emplace_back([&] {
    std::uint64_t sink = 0;
    while (!done.load(std::memory_order_acquire)) {
      const DaemonStats stats = daemon.stats();
      sink += stats.bins_completed + stats.alerts_emitted;
      for (features::FeatureKind f : features::kAllFeatures) {
        sink += daemon.threshold(f) > 0.0 ? 1 : 0;
      }
      sink += daemon.current_week();
    }
    EXPECT_GE(sink, 0u);
  });
  // Scraper 2: the ops surface — global registry snapshot + Prometheus
  // rendering racing the worker's counter/gauge/histogram writes.
  scrapers.emplace_back([&] {
    std::size_t rendered = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::ostringstream out;
      obs::write_global_prometheus(out);
      rendered += out.str().size();
    }
    // An OBS=OFF build registers nothing, so the exposition is empty there.
    if constexpr (obs::kEnabled) {
      EXPECT_GT(rendered, 0u);
    }
  });

  // Producer: blocking lossless feed in small batches so the stream crosses
  // the week-0 -> week-1 rollover many scrapes in.
  const auto& packets = fixture_packets();
  constexpr std::size_t kBatch = 2048;
  for (std::size_t off = 0; off < packets.size(); off += kBatch) {
    daemon.on_batch(std::span<const net::PacketRecord>(
        packets.data() + off, std::min(kBatch, packets.size() - off)));
  }
  const DaemonResult result = daemon.finish();
  done.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();

  EXPECT_EQ(result.stats.packets_ingested, packets.size());
  EXPECT_GE(result.stats.rollovers, 1u) << "stream must cross a week rollover";
  EXPECT_EQ(result.stats.batches_dropped, 0u);
}

TEST(DaemonStress, CompetingProducersObeyPacketConservation) {
  DaemonConfig config = fixture_config();
  config.queue_capacity = 2;  // force drops under contention
  Daemon daemon(config);

  const auto& packets = fixture_packets();
  const std::size_t half = packets.size() / 2;
  std::atomic<std::uint64_t> offered{0};

  // Two producers offer()ing interleaved slices: cross-thread interleaving
  // produces timestamp regressions (skipped, counted) and queue-full drops
  // (counted). Nothing may be lost untracked and nothing may crash.
  auto produce = [&](std::size_t begin, std::size_t end) {
    constexpr std::size_t kBatch = 1024;
    for (std::size_t off = begin; off < end; off += kBatch) {
      const std::size_t n = std::min(kBatch, end - off);
      if (daemon.offer(std::span<const net::PacketRecord>(packets.data() + off, n))) {
        offered.fetch_add(n, std::memory_order_relaxed);
      }
    }
  };
  std::thread a(produce, std::size_t{0}, half);
  std::thread b(produce, half, packets.size());
  a.join();
  b.join();

  const DaemonResult result = daemon.finish();
  EXPECT_EQ(result.stats.packets_ingested + result.stats.packets_out_of_order,
            offered.load());
  EXPECT_EQ(result.stats.packets_ingested + result.stats.packets_out_of_order +
                result.stats.packets_dropped,
            packets.size());
}

}  // namespace
}  // namespace monohids::hids
