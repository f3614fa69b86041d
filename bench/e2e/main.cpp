// End-to-end benchmark driver: one workload per process.
//
//   e2e --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--workdir D]
//
// Prints every metric of the run's mode as `workload metric value unit`,
// then `# info key value` lines (input and output digests, load shape), and
// last a JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (BENCHMARK.json lists both). Exits 1 when a check fails.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"pass_cpu_s", "s"},
    {"pass_cpu_p75_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// Layers not exercised by a workload read 0.
constexpr Metric kPerLayer[] = {
    {"trace.population_ms", "ms"},
    {"trace.synthesis_ms", "ms"},
    {"trace.synthesis_busy_ms", "ms"},
    {"trace.synthesis_efficiency", "ratio"},
    {"sim.cache_week_ms", "ms"},
    {"sim.cache_misses", "count"},
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.attack_model_ms", "ms"},
    {"hids.thresholds_p99_ms", "ms"},
    {"hids.thresholds_utility_ms", "ms"},
    {"hids.evaluate_ms", "ms"},
    {"trace.pcap_parse_ms", "ms"},
    {"trace.pcap_ns_per_pkt", "ns"},
    {"trace.pcap_mib_per_s", "MiB/s"},
    {"hids.daemon_ns_per_pkt", "ns"},
    {"hids.daemon_finish_ms", "ms"},
    {"hids.submit_blocked_pct", "%"},
    {"hids.pkts_per_s", "1/s"},
    {"hids.inline_pkts_per_s", "1/s"},
    {"features.ingest_ns_per_pkt", "ns"},
    {"net.flows_created", "count"},
    {"net.max_live_flows", "count"},
    {"net.flows_ended_timeout", "count"},
    {"hids.bins_completed", "count"},
    {"hids.alerts", "count"},
    {"hids.rollovers", "count"},
    {"hids.ttd_min", "min"},
    {"hids.batch_lat_p50_ms", "ms"},
    {"hids.batch_lat_p90_ms", "ms"},
    {"hids.batch_lat_p99_ms", "ms"},
    {"hids.offer_us_p50", "us"},
    {"hids.queue_peak", "count"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.open_loop_invalid", "count"},
    {"bench.input_s", "s"},
    {"bench.passes", "count"},
    {"bench.pass_wall_s", "s"},
    {"bench.pass_wall_p75_s", "s"},
    {"bench.attributed_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

int usage() {
  std::cerr << "usage: e2e --workload table3_cold|policy_sweep|pcap_replay|live_queue"
               " [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--workdir DIR]\n";
  return 2;
}

void print(const std::string& workload, const e2e::Report& report, bool trace) {
  std::set<std::string> known;
  for (const Metric& m : kEndToEnd) known.insert(m.name);
  for (const Metric& m : kPerLayer) known.insert(m.name);
  for (const auto& [name, value] : report.metrics) {
    if (known.count(name) == 0) throw std::logic_error("undeclared metric " + name);
  }

  std::cout << std::setprecision(17);
  std::ostringstream json;
  json << std::setprecision(17) << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    const auto it = report.metrics.find(m.name);
    double value = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::cout << workload << ' ' << m.name << ' ' << value << ' ' << m.unit << '\n';
    json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << value
         << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  for (const auto& [key, value] : report.info) std::cout << "# info " << key << ' ' << value << '\n';
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

namespace e2e {

void Report::operation(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    check(false, what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "FAIL: " << what << '\n';
}

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else {
      return usage();
    }
  }
  if (options.workdir.empty()) options.workdir = ".";
  std::filesystem::create_directories(options.workdir);

  // The library's parallel loops run on two threads: enough to exercise the
  // pool and parallel synthesis, few enough that passes on a shared 4-core
  // machine stay steady. Read once, on first use.
  setenv("MONOHIDS_THREADS", "2", 1);

  e2e::Report report;
  try {
    if (options.workload == "table3_cold") {
      e2e::run_table3_cold(options, report);
    } else if (options.workload == "policy_sweep") {
      e2e::run_policy_sweep(options, report);
    } else if (options.workload == "pcap_replay") {
      e2e::run_pcap_replay(options, report);
    } else if (options.workload == "live_queue") {
      e2e::run_live_queue(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << options.workload << ": " << e.what() << '\n';
    return 1;
  }
  print(options.workload, report, options.trace);
  return report.correct ? 0 : 1;
}
