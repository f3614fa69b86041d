// Live-path workloads: the per-host agent consuming packets.
//
//   pcap_replay — a multi-week single-host capture on disk feeds
//                 Daemon::consume_pcap inline, then finish(). Parsing
//                 dominates; the flow table stays in its dense-scan regime.
//   live_queue  — the same generator's in-memory stream, with a heavy Storm
//                 zombie, fed through the bounded queue to the worker thread
//                 (lossless on_batch). Parsing is bypassed; the fan-out
//                 pushes the flow table past its scan-to-timing-wheel
//                 switchover. The traced run adds an open-loop phase that
//                 offer()s batches at a fixed rate and measures batch latency
//                 from each batch's due time.
//
// Every run checks exact packet conservation per pass and, once after the
// timed passes, that the daemon's alarms equal the batch pipeline's
// (extract_features + nearest-rank week k-1 thresholds, strict >).
#include <sys/prctl.h>

#include <atomic>
#include <fstream>
#include <optional>
#include <thread>

#include "common.hpp"
#include "hids/daemon.hpp"
#include "loadgen.hpp"
#include "spans.hpp"
#include "stats/quantile.hpp"
#include "trace/pcap.hpp"

namespace e2e {

namespace {

using namespace monohids;
using Alarms = std::vector<std::pair<std::size_t, std::uint64_t>>;
using Batches = std::vector<std::span<const net::PacketRecord>>;

constexpr std::size_t kQueueBatch = 4096;
constexpr unsigned kQueueThreads = 2;  // the producer and the daemon's worker
// Well under the worker's drain rate: at 4 M packets/s, multi-millisecond
// stalls of a shared host filled the 64-batch queue and dropped batches.
constexpr double kOpenLoopPktsPerSec = 2e6;
// An open-loop pass whose generator ran later than this (p99) did not offer
// the scheduled load, so its latencies are not reported. Passes repeat
// until kOpenLoopPasses valid ones, at most kOpenLoopMaxPasses in all.
constexpr double kMaxGenLateMs = 1.0;
constexpr std::size_t kOpenLoopPasses = 4;
constexpr std::size_t kOpenLoopMaxPasses = 10;

LoadConfig pcap_load(const Options& options) {
  LoadConfig load;
  load.seed = options.seed;
  load.sessions_per_hour = options.smoke ? 8.0 : 360.0;
  // A light zombie in week 2: enough to be detected, too little to grow
  // the flow table past its dense-scan size.
  load.storm = {2, 3, 3.0, 0.3, 4, 20.0, 30.0, 0.5};
  return load;
}

LoadConfig queue_load(const Options& options) {
  LoadConfig load;
  load.seed = mix_seed(options.seed, 1);
  load.sessions_per_hour = options.smoke ? 8.0 : 360.0;
  // A heavy zombie in weeks 1-4: each daily 12-minute spam wave leaves
  // thousands of half-open SMTP flows alive for the TCP idle timeout.
  load.storm = {1, 5, 6.0, 0.3, 1, 12.0, options.smoke ? 20.0 : 800.0, 0.85};
  return load;
}

hids::DaemonConfig daemon_config(const LoadConfig& load, bool deliver_inline) {
  hids::DaemonConfig config;
  config.monitored = load.host;
  config.user_id = 0;
  config.pipeline.grid = util::BinGrid::minutes(15);
  config.pipeline.horizon = load.horizon_us();
  config.deliver_inline = deliver_inline;
  config.queue_capacity = 64;
  return config;
}

/// The batch-pipeline ground truth the daemon must reproduce: week-k
/// nearest-rank thresholds applied to week k+1, alarms where value > T.
Alarms batch_alarms(const hids::DaemonConfig& config,
                    std::span<const net::PacketRecord> packets, net::FlowTableStats& flows) {
  const auto result = features::extract_features(config.monitored, packets, config.pipeline);
  flows = result.flow_stats;
  const std::uint64_t bins_per_week = util::kMicrosPerWeek / config.pipeline.grid.width();
  const std::uint64_t total_bins =
      result.matrix.of(features::FeatureKind::TcpConnections).values().size();
  Alarms alarms;
  for (std::uint64_t bin = bins_per_week; bin < total_bins; ++bin) {
    const auto week = static_cast<std::uint32_t>(bin / bins_per_week);
    for (std::size_t i = 0; i < features::kFeatureCount; ++i) {
      const auto& series = result.matrix.of(features::kAllFeatures[i]);
      const double threshold =
          stats::quantile_nearest_rank(series.week_slice(week - 1), config.percentile);
      if (series.values()[bin] > threshold) alarms.emplace_back(i, bin);
    }
  }
  return alarms;
}

Alarms daemon_alarms(const hids::DaemonResult& result) {
  Alarms alarms;
  for (const hids::Alert& a : result.alerts) alarms.emplace_back(features::index_of(a.feature), a.bin);
  return alarms;
}

std::uint64_t result_digest(const hids::DaemonResult& result) {
  Fnv1a fnv;
  for (const hids::Alert& a : result.alerts) {
    fnv.value(static_cast<std::uint8_t>(a.feature));
    fnv.value(a.bin);
    fnv.value(a.observed);
    fnv.value(a.threshold);
  }
  for (const hids::ThresholdUpdate& u : result.rollovers) {
    fnv.value(u.week);
    fnv.update(u.thresholds.data(), sizeof u.thresholds);
  }
  const net::FlowTableStats& f = result.pipeline.flow_stats;
  for (std::uint64_t v : {f.packets_processed, f.flows_created, f.flows_ended_fin,
                          f.flows_ended_rst, f.flows_ended_timeout, f.flows_ended_flush,
                          f.syn_packets, f.max_live_flows}) {
    fnv.value(v);
  }
  fnv.value(result.stats.bins_completed);
  return fnv.digest();
}

/// Simulated minutes from `onset` to the first alert at or after it (-1 when
/// none fired).
double time_to_detection_min(const hids::DaemonResult& result, std::uint64_t onset) {
  for (const hids::Alert& a : result.alerts) {
    if (a.bin_start >= onset) {
      return static_cast<double>(a.bin_start - onset) / static_cast<double>(util::kMicrosPerMinute);
    }
  }
  return -1.0;
}

void note_shape(Report& report, const LoadShape& s, double input_s) {
  report.note("load_packets", s.packets);
  report.note("load_sessions", s.sessions);
  report.note("load_tcp_pct", std::to_string(100.0 * static_cast<double>(s.tcp) / static_cast<double>(s.packets)));
  report.note("load_udp_pct", std::to_string(100.0 * static_cast<double>(s.udp) / static_cast<double>(s.packets)));
  report.note("load_icmp_pct", std::to_string(100.0 * static_cast<double>(s.icmp) / static_cast<double>(s.packets)));
  report.note("load_syn", s.syn);
  report.note("load_storm_packets", s.storm_packets);
  report.note("load_idle_gaps", s.idle_gaps);
  report.note("load_payload_bytes", s.payload_bytes);
  if (s.file_bytes > 0) {
    report.note("load_file_bytes", s.file_bytes);
    report.note("load_file_bytes_per_pkt",
                std::to_string(static_cast<double>(s.file_bytes) / static_cast<double>(s.packets)));
    report.note("input_file_digest", hex(s.file_digest));
  }
  report.note("input_stream_digest", hex(s.stream_digest));
  report.set("bench.input_s", input_s);
}

/// The facts every pass of one workload must reproduce.
struct Reference {
  std::optional<std::uint64_t> digest;
  Alarms alarms;
  net::FlowTableStats flows;
  hids::DaemonStats stats;
  double ttd_min = -1.0;

  /// Records the first pass; later passes must match it exactly.
  bool match(const hids::DaemonResult& result, std::uint64_t onset) {
    const std::uint64_t d = result_digest(result);
    if (!digest) {
      digest = d;
      alarms = daemon_alarms(result);
      flows = result.pipeline.flow_stats;
      stats = result.stats;
      ttd_min = time_to_detection_min(result, onset);
    }
    return d == *digest;
  }
};

/// Forwards batches to the daemon with a span around each on_batch.
class SpanSink final : public features::PacketSink {
 public:
  SpanSink(hids::Daemon& daemon, const char* name) : daemon_(daemon), name_(name) {}
  void on_batch(std::span<const net::PacketRecord> batch) override {
    const spans::Scope span(name_);
    daemon_.on_batch(batch);
  }

 private:
  hids::Daemon& daemon_;
  const char* name_;
};

/// Keeps every batch a producer pushes (the isolation passes replay them).
class CollectSink final : public features::PacketSink {
 public:
  std::vector<std::vector<net::PacketRecord>> batches;
  void on_batch(std::span<const net::PacketRecord> batch) override {
    batches.emplace_back(batch.begin(), batch.end());
  }
};

/// Layer costs measured on in-memory batches, outside the daemon's queue:
/// IngestSession::on_batch alone, and the whole daemon inline.
struct Isolation {
  std::vector<double> ingest_ns_per_pkt;
  std::vector<double> inline_pkts_per_s;
};

template <typename Batches>
void isolation_pass(const hids::DaemonConfig& config, const Batches& batches,
                    std::uint64_t packets, Isolation& out) {
  {
    features::IngestSession session(config.monitored, config.pipeline);
    double busy = 0.0;
    for (const auto& batch : batches) {
      const auto start = Clock::now();
      session.on_batch(batch);
      busy += seconds_since(start);
    }
    (void)session.finish();
    out.ingest_ns_per_pkt.push_back(1e9 * busy / static_cast<double>(packets));
  }
  hids::DaemonConfig inline_config = config;
  inline_config.deliver_inline = true;
  hids::Daemon daemon(inline_config);
  const auto start = Clock::now();
  for (const auto& batch : batches) daemon.on_batch(batch);
  (void)daemon.finish();
  out.inline_pkts_per_s.push_back(static_cast<double>(packets) / seconds_since(start));
}

/// Per-pass layer numbers of a live traced pass. `submit_span` names the
/// spans around Daemon::on_batch.
void add_layers(Samples& layers, const SpanTotals& totals, std::uint64_t packets,
                double file_mib, const char* submit_span) {
  const double pass_ms = span_ms(totals, "pass", false);
  const double parse_ms = span_ms(totals, "trace.stream_pcap", true);
  const double submit_ms = span_ms(totals, submit_span, false);
  const auto n = static_cast<double>(packets);
  layers.add("trace.pcap_parse_ms", parse_ms);
  layers.add("trace.pcap_ns_per_pkt", 1e6 * parse_ms / n);
  layers.add("trace.pcap_mib_per_s", parse_ms > 0.0 ? file_mib / (parse_ms / 1e3) : 0.0);
  layers.add("hids.daemon_ns_per_pkt", 1e6 * submit_ms / n);
  layers.add("hids.daemon_finish_ms", span_ms(totals, "hids.daemon_finish", false));
  layers.add("hids.submit_blocked_pct", 100.0 * submit_ms / pass_ms);
}

void report_layers(Report& report, const Samples& layers, const Isolation& iso,
                   const Reference& ref, std::uint64_t packets, const std::vector<double>& plain_s) {
  layers.report(report);
  report.set("features.ingest_ns_per_pkt", median(iso.ingest_ns_per_pkt));
  report.set("hids.inline_pkts_per_s", median(iso.inline_pkts_per_s));
  report.set("hids.pkts_per_s", static_cast<double>(packets) / median(plain_s));
  report.set("net.flows_created", static_cast<double>(ref.flows.flows_created));
  report.set("net.max_live_flows", static_cast<double>(ref.flows.max_live_flows));
  report.set("net.flows_ended_timeout", static_cast<double>(ref.flows.flows_ended_timeout));
  report.set("hids.bins_completed", static_cast<double>(ref.stats.bins_completed));
  report.set("hids.alerts", static_cast<double>(ref.stats.alerts_emitted));
  report.set("hids.rollovers", static_cast<double>(ref.stats.rollovers));
  report.set("hids.ttd_min", ref.ttd_min);
}

/// One open-loop pass: batches are offer()ed at a fixed packet rate whether
/// or not the daemon keeps up; each batch's latency runs from its due time
/// until an observer thread sees the daemon's counters cover it.
struct OpenLoop {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> offer_us;
  std::uint64_t batches = 0;
  std::uint64_t dropped = 0;
  std::size_t queue_peak = 0;
  bool conserved = false;
  bool drained = false;
};

OpenLoop open_loop_pass(const hids::DaemonConfig& config, const Batches& batches,
                        std::uint64_t packets) {
  using std::chrono::duration;
  using std::chrono::duration_cast;
  OpenLoop out;
  const std::size_t n = batches.size();
  out.batches = n;
  std::vector<std::uint64_t> target(n, 0);  // cumulative accepted packets through batch i
  std::vector<char> accepted(n, 0);
  std::vector<Clock::time_point> due(n), seen(n);
  std::atomic<std::size_t> published{0};

  // Sleep with 1 ns timer slack (default 50 us) so the generator wakes on
  // time and the observer's 10 us polls do not need a spinning core.
  prctl(PR_SET_TIMERSLACK, 1UL);
  hids::Daemon daemon(config);
  std::thread observer([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    std::size_t next = 0;
    while (next < n && Clock::now() < give_up) {
      const std::size_t available = published.load(std::memory_order_acquire);
      const hids::DaemonStats st = daemon.stats();
      const std::uint64_t covered = st.packets_ingested + st.packets_out_of_order;
      const auto now = Clock::now();
      while (next < available && (!accepted[next] || covered >= target[next])) {
        seen[next] = now;
        ++next;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
    out.drained = next == n;
  });

  const auto period = duration_cast<Clock::duration>(
      duration<double>(static_cast<double>(kQueueBatch) / kOpenLoopPktsPerSec));
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + period * static_cast<long>(i);
    std::this_thread::sleep_until(due[i] - std::chrono::microseconds(50));
    while (Clock::now() < due[i]) {
    }
    const auto offered = Clock::now();
    const auto batch = batches[i];
    const bool ok = daemon.offer(batch);
    out.offer_us.push_back(duration<double, std::micro>(Clock::now() - offered).count());
    out.late_ms.push_back(duration<double, std::milli>(offered - due[i]).count());
    if (ok) {
      cumulative += batch.size();
      target[i] = cumulative;
      accepted[i] = 1;
    } else {
      ++out.dropped;
    }
    published.store(i + 1, std::memory_order_release);
  }
  observer.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (accepted[i]) out.latency_ms.push_back(duration<double, std::milli>(seen[i] - due[i]).count());
  }
  const hids::DaemonResult result = daemon.finish();
  const hids::DaemonStats& st = result.stats;
  out.queue_peak = st.queue_peak;
  out.conserved = packets == st.packets_ingested + st.packets_out_of_order + st.packets_dropped;
  return out;
}

}  // namespace

void run_pcap_replay(const Options& options, Report& report) {
  const LoadConfig load = pcap_load(options);
  const std::string path = options.workdir + "/pcap_replay-" + std::to_string(options.seed) + ".pcap";
  // The capture is several hundred MB: delete it however the run ends.
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } remove_capture{path};
  const auto input_start = Clock::now();
  const LoadShape shape = write_pcap_file(load, path);
  note_shape(report, shape, seconds_since(input_start));
  const hids::DaemonConfig config = daemon_config(load, true);
  const double file_mib = static_cast<double>(shape.file_bytes) / (1024.0 * 1024.0);

  Reference ref;
  auto check = [&](const trace::PcapReadResult& read, const hids::DaemonResult& result) {
    const hids::DaemonStats& st = result.stats;
    report.operation(read.stream_error.empty() && read.packet_count == shape.packets &&
                         read.packet_count == st.packets_ingested + st.packets_out_of_order &&
                         ref.match(result, load.storm_onset_us()),
                     "pcap replay: clean parse, parsed = ingested + out_of_order, same result");
  };
  // Set-up is what the agent does before the first packet: open the capture
  // and construct the daemon.
  auto plain = [&] {
    Timing t;
    Stopwatch watch;
    std::ifstream in(path, std::ios::binary);
    hids::Daemon daemon(config);
    t.setup = watch.lap();
    const trace::PcapReadResult read = daemon.consume_pcap(in);
    const hids::DaemonResult result = daemon.finish();
    t.pass = watch.lap();
    check(read, result);
    return t;
  };

  if (!options.trace) {
    measure(options.seconds, 1, report, [&](std::size_t) { return plain(); });
  } else {
    auto traced = [&] {
      const auto start = Clock::now();
      trace::PcapReadResult read;
      std::optional<hids::DaemonResult> result;
      {
        const spans::Scope root("pass");
        std::optional<hids::Daemon> daemon;
        {
          const spans::Scope span("hids.daemon_init");
          daemon.emplace(config);
        }
        SpanSink sink(*daemon, "hids.daemon_on_batch");
        {
          const spans::Scope span("trace.stream_pcap");
          std::ifstream in(path, std::ios::binary);
          read = trace::stream_pcap_recovering(in, sink);
        }
        const spans::Scope span("hids.daemon_finish");
        result.emplace(daemon->finish());
      }
      const double seconds = seconds_since(start);
      check(read, *result);
      return seconds;
    };
    Samples layers;
    const auto plain_s = traced_pairs(
        0.7 * options.seconds, options.workdir + "/trace-pcap_replay.json", report,
        [&](std::size_t) { return plain(); }, [&](std::size_t) { return traced(); },
        [&](const SpanTotals& totals) {
          add_layers(layers, totals, shape.packets, file_mib, "hids.daemon_on_batch");
        });
    Isolation iso;
    {
      CollectSink collected;
      std::ifstream in(path, std::ios::binary);
      (void)trace::stream_pcap_recovering(in, collected);
      for (int i = 0; i < 3; ++i) isolation_pass(config, collected.batches, shape.packets, iso);
    }
    report_layers(report, layers, iso, ref, shape.packets, plain_s);
  }
  // Verification: the generator's in-memory stream (which also checks that
  // parsing the file gave back exactly what was written) through the batch
  // pipeline must reproduce the daemon's alarms and flow accounting.
  LoadShape memory_shape;
  const auto packets = generate_stream(load, memory_shape);
  report.check(memory_shape.stream_digest == shape.stream_digest, "in-memory stream digest");
  net::FlowTableStats flows;
  report.check(batch_alarms(config, packets, flows) == ref.alarms, "daemon alarms equal batch pipeline");
  report.check(flows == ref.flows, "daemon flow stats equal batch pipeline");
  report.note("output_digest", hex(ref.digest.value_or(0)));
  report.note("alerts", ref.alarms.size());
}

void run_live_queue(const Options& options, Report& report) {
  const LoadConfig load = queue_load(options);
  const auto input_start = Clock::now();
  LoadShape shape;
  const std::vector<net::PacketRecord> packets = generate_stream(load, shape);
  note_shape(report, shape, seconds_since(input_start));
  const hids::DaemonConfig config = daemon_config(load, false);
  Batches batches;
  for (std::size_t at = 0; at < packets.size(); at += kQueueBatch) {
    batches.push_back(std::span(packets).subspan(at, std::min(kQueueBatch, packets.size() - at)));
  }

  Reference ref;
  auto check = [&](const hids::DaemonResult& result) {
    const hids::DaemonStats& st = result.stats;
    report.operation(packets.size() == st.packets_ingested + st.packets_out_of_order +
                                           st.packets_dropped &&
                         st.packets_dropped == 0 && ref.match(result, load.storm_onset_us()),
                     "queue replay: offered = ingested + out_of_order + dropped, same result");
  };
  // Set-up constructs the daemon, which starts its worker thread.
  auto plain = [&] {
    Timing t;
    Stopwatch watch;
    hids::Daemon daemon(config);
    t.setup = watch.lap();
    for (const auto batch : batches) daemon.on_batch(batch);
    const hids::DaemonResult result = daemon.finish();
    t.pass = watch.lap();
    check(result);
    return t;
  };

  if (!options.trace) {
    measure(options.seconds, kQueueThreads, report, [&](std::size_t) { return plain(); });
  } else {
    auto traced = [&] {
      const auto start = Clock::now();
      std::optional<hids::DaemonResult> result;
      {
        const spans::Scope root("pass");
        std::optional<hids::Daemon> daemon;
        {
          const spans::Scope span("hids.daemon_init");
          daemon.emplace(config);
        }
        SpanSink sink(*daemon, "hids.daemon_submit");
        for (const auto batch : batches) sink.on_batch(batch);
        const spans::Scope span("hids.daemon_finish");
        result.emplace(daemon->finish());
      }
      const double seconds = seconds_since(start);
      check(*result);
      return seconds;
    };
    Samples layers;
    const auto plain_s = traced_pairs(
        0.5 * options.seconds, options.workdir + "/trace-live_queue.json", report,
        [&](std::size_t) { return plain(); }, [&](std::size_t) { return traced(); },
        [&](const SpanTotals& totals) {
          add_layers(layers, totals, shape.packets, 0.0, "hids.daemon_submit");
        });
    Isolation iso;
    for (int i = 0; i < 3; ++i) isolation_pass(config, batches, shape.packets, iso);
    report_layers(report, layers, iso, ref, shape.packets, plain_s);

    // Open-loop phase: fixed-rate offer() against the bounded queue.
    std::vector<OpenLoop> valid, invalid;
    while (valid.size() < kOpenLoopPasses && valid.size() + invalid.size() < kOpenLoopMaxPasses) {
      OpenLoop run = open_loop_pass(config, batches, packets.size());
      // Each offered batch is an operation; a dropped one failed.
      report.attempted += run.batches;
      report.failed += run.dropped;
      report.check(run.conserved && run.drained, "open loop: offered = ingested + out_of_order + dropped");
      (quantile(run.late_ms, 0.99) > kMaxGenLateMs ? invalid : valid).push_back(std::move(run));
    }
    // Host stalls, not the daemon, make a pass late, so a run without a
    // valid pass is not a failure: its latencies come from every pass and
    // are marked unvalidated (bench.open_loop_invalid equals the passes run).
    const bool validated = !valid.empty();
    report.note("open_loop_latency", validated ? "validated" : "unvalidated: generator late p99 > 1 ms in every pass");
    std::vector<double> latency, late, offer;
    std::size_t queue_peak = 0;
    for (const OpenLoop& run : validated ? valid : invalid) {
      latency.insert(latency.end(), run.latency_ms.begin(), run.latency_ms.end());
      late.insert(late.end(), run.late_ms.begin(), run.late_ms.end());
      offer.insert(offer.end(), run.offer_us.begin(), run.offer_us.end());
      queue_peak = std::max(queue_peak, run.queue_peak);
    }
    report.set("hids.batch_lat_p50_ms", quantile(latency, 0.5));
    report.set("hids.batch_lat_p90_ms", quantile(latency, 0.9));
    report.set("hids.batch_lat_p99_ms", quantile(latency, 0.99));
    report.set("hids.offer_us_p50", quantile(offer, 0.5));
    report.set("hids.queue_peak", static_cast<double>(queue_peak));
    report.set("bench.gen_late_p99_ms", quantile(late, 0.99));
    report.set("bench.open_loop_invalid", static_cast<double>(invalid.size()));
  }

  net::FlowTableStats flows;
  report.check(batch_alarms(config, packets, flows) == ref.alarms, "daemon alarms equal batch pipeline");
  report.check(flows == ref.flows, "daemon flow stats equal batch pipeline");
  report.note("output_digest", hex(ref.digest.value_or(0)));
  report.note("alerts", ref.alarms.size());
}

}  // namespace e2e
