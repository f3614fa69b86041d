// Live capture-to-alarm daemon, end to end.
//
// Runs hids::Daemon the way a deployed agent would: packets stream in
// incrementally (a synthetic multi-week trace, optionally with a Storm
// zombie overlay mid-stream, or a real pcap capture), feature bins complete
// as simulated time advances, thresholds re-derive at each week rollover,
// and alerts batch up to the central console. At exit it prints the
// operational counters, the threshold history, and the per-week alert load,
// and can drop a Prometheus textfile for a scrape sidecar.
//
//   ./hids_daemon [--weeks N] [--storm-week W] [--rolling] [--pcap FILE]
//                 [--metrics FILE]
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "hids/daemon.hpp"
#include "obs/export.hpp"
#include "trace/generator.hpp"
#include "trace/population.hpp"
#include "trace/storm.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace monohids;

  util::CliFlags flags("run the live capture-to-alarm daemon over a packet stream");
  flags.add_int("users", 50, "population size to draw the monitored user from");
  flags.add_int("seed", 42, "master seed");
  flags.add_int("user", 7, "user id to monitor");
  flags.add_int("weeks", 3, "trace length in weeks (week 0 is warm-up)");
  flags.add_int("storm-week", -1, "inject a Storm zombie for this week (-1 = clean)");
  flags.add_int("batch", 4096, "ingest batch size in packets");
  flags.add_double("percentile", 0.99, "training percentile for the thresholds (both modes)");
  flags.add_bool("rolling", false, "sliding-window thresholds instead of weekly rollover");
  flags.add_string("pcap", "", "consume this pcap capture instead of a synthetic trace");
  flags.add_string("metrics", "", "write a Prometheus textfile here at exit");
  if (!flags.parse(argc, argv)) return 0;

  const auto weeks = static_cast<std::uint32_t>(std::max<long long>(1, flags.get_int("weeks")));
  const auto batch = static_cast<std::size_t>(std::max<long long>(1, flags.get_int("batch")));

  trace::PopulationConfig pop;
  pop.user_count = static_cast<std::uint32_t>(flags.get_int("users"));
  pop.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto users = trace::generate_population(pop);
  const auto user_id = static_cast<std::size_t>(flags.get_int("user"));
  if (user_id >= users.size()) {
    std::cerr << "user id out of range\n";
    return 1;
  }
  const trace::UserProfile& user = users[user_id];

  hids::DaemonConfig config;
  config.monitored = user.address;
  config.user_id = user.user_id;
  config.pipeline.horizon = static_cast<util::Duration>(weeks) * util::kMicrosPerWeek;
  config.percentile = flags.get_double("percentile");
  config.mode = flags.get_bool("rolling") ? hids::ThresholdMode::Rolling
                                          : hids::ThresholdMode::WeeklyRollover;
  hids::Daemon daemon(config);

  if (const auto& path = flags.get_string("pcap"); !path.empty()) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      std::cerr << "cannot open pcap: " << path << '\n';
      return 1;
    }
    const auto imported = daemon.consume_pcap(in, batch);
    std::cout << "pcap import: " << imported.packet_count << " packets, "
              << imported.skipped_non_ipv4 + imported.skipped_protocol << " skipped";
    if (!imported.stream_error.empty()) {
      std::cout << "  [stream fault: " << imported.stream_error << "]";
    }
    std::cout << '\n';
  } else {
    // Synthetic stream: the user's own traffic, optionally merged with a
    // Storm zombie's packets for one week — the mid-stream infection the
    // detection experiments model.
    const trace::TraceGenerator generator{trace::GeneratorConfig{}};
    auto packets = generator.generate_packets(user, 0, config.pipeline.horizon);
    const auto storm_week = flags.get_int("storm-week");
    if (storm_week >= 0 && static_cast<std::uint32_t>(storm_week) < weeks) {
      trace::StormConfig storm;
      const auto begin = static_cast<util::Timestamp>(storm_week) * util::kMicrosPerWeek;
      // The zombie renders in its own one-week horizon; shift it to the
      // infection week.
      auto zombie =
          trace::generate_storm_packets(storm, user.address, 0, util::kMicrosPerWeek);
      for (net::PacketRecord& p : zombie) p.timestamp += begin;
      auto merged = std::move(packets);
      merged.insert(merged.end(), zombie.begin(), zombie.end());
      std::stable_sort(merged.begin(), merged.end(),
                       [](const net::PacketRecord& a, const net::PacketRecord& b) {
                         return a.timestamp < b.timestamp;
                       });
      packets = std::move(merged);
      std::cout << "injected " << zombie.size() << " Storm packets into week "
                << storm_week << '\n';
    }
    for (std::size_t off = 0; off < packets.size(); off += batch) {
      const std::size_t n = std::min(batch, packets.size() - off);
      daemon.on_batch(std::span<const net::PacketRecord>(packets.data() + off, n));
    }
  }

  const hids::DaemonResult result = daemon.finish();

  std::cout << "\nuser " << user.user_id << " @ " << user.address.to_string() << "  mode="
            << (config.mode == hids::ThresholdMode::Rolling ? "rolling" : "weekly-rollover")
            << "  p" << config.percentile * 100.0 << '\n';  // 0.999 prints p99.9
  std::cout << "ingested " << result.stats.packets_ingested << " packets in "
            << result.stats.batches_enqueued << " batches ("
            << result.stats.packets_out_of_order << " out-of-order skipped, "
            << result.stats.batches_dropped << " batches dropped), "
            << result.stats.bins_completed << " bins scanned, " << result.stats.rollovers
            << " threshold rollovers\n";
  std::cout << "flow table: " << result.pipeline.flow_stats.flows_created << " flows, "
            << result.pipeline.flow_stats.syn_packets << " raw SYNs\n\n";

  util::TextTable thresholds({"week", "DNS", "TCP", "SYN", "HTTP", "distinct", "UDP"});
  for (const hids::ThresholdUpdate& update : result.rollovers) {
    std::vector<std::string> row{std::to_string(update.week)};
    for (double t : update.thresholds) {
      row.push_back(std::isfinite(t) ? util::fixed(t, 0) : "inf");
    }
    thresholds.add_row(row);
  }
  std::cout << "thresholds in force per week:\n" << thresholds.render() << '\n';

  util::TextTable alerts({"week", "alerts at console"});
  for (std::uint32_t w = 0; w < weeks; ++w) {
    alerts.add_row({std::to_string(w), std::to_string(result.console.alerts_in_week(w))});
  }
  std::cout << "console: " << result.console.total_alerts() << " alerts in "
            << result.console.total_batches() << " batches\n"
            << alerts.render();

  if (const auto& path = flags.get_string("metrics"); !path.empty()) {
    obs::write_global_prometheus(path);
    std::cout << "\nwrote Prometheus metrics to " << path << '\n';
  }
  return 0;
}
