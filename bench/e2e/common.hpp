// Shared pieces of the end-to-end benchmark driver: options, the run
// report, order statistics and digests, the pass clock, the host-speed
// probe, and the untraced and traced measurement loops.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "util/rss.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;   ///< tiny inputs for a quick end-to-end check
  std::string workdir;  ///< scratch files (pcap captures, span traces)
};

/// What one run reports: the correctness verdict, operation counts, and
/// named metrics. Metric names are checked against the declared lists when
/// the report is printed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
  void note(const std::string& key, std::uint64_t value) { note(key, std::to_string(value)); }
  /// Counts one operation; a failed one also marks the run incorrect.
  void operation(bool ok, const std::string& what);
  /// A verification check that is not itself an operation.
  void check(bool ok, const std::string& what);
};

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
[[nodiscard]] inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// SplitMix64 finalizer: derives per-pass seeds from the run seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64-bit, incremental.
class Fnv1a {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    update(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// 16-digit hex rendering of a digest.
[[nodiscard]] inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// 6 significant digits, for `# info` lines.
[[nodiscard]] inline std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// CPU seconds used so far by all threads of the process.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU seconds of one step. CPU seconds count every thread of the
/// process: the library's pool and the daemon's worker as well.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Times consecutive steps: lap() returns the cost since construction or
/// the previous lap().
class Stopwatch {
 public:
  Cost lap() {
    const auto wall = Clock::now();
    const double cpu = process_cpu_s();
    const Cost cost{std::chrono::duration<double>(wall - wall_).count(), cpu - cpu_};
    wall_ = wall;
    cpu_ = cpu;
    return cost;
  }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = process_cpu_s();
};

/// Costs of one pass: the set-up step it depends on, and the pass.
struct Timing {
  Cost setup;
  Cost pass;
};

/// Host-speed probe: a fixed mix of random read-modify-writes over an 8 MiB
/// table and dependent integer arithmetic, run at once on `threads` threads,
/// each with its own table. It shares no code with the library, so only the
/// host can change its cost. The tables stay resident from the first call
/// on. Returns CPU seconds per thread.
inline constexpr std::size_t kHostProbeWords = std::size_t{1} << 20;
inline std::atomic<std::uint64_t> host_probe_sink{0};
/// Nominal probe CPU time per thread: scaled costs read as if every probe
/// had taken this long (about its median on the baseline's VM).
inline constexpr double kHostProbeRefS = 0.016;

inline void host_probe_body(std::vector<std::uint64_t>& table) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kHostProbeWords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table[x & (kHostProbeWords - 1)];
    slot += x;
    acc ^= slot * 0x9e3779b97f4a7c15ULL;
    acc = (acc << 7) | (acc >> 57);
  }
  for (std::size_t i = 0; i < 2 * kHostProbeWords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * (acc | 1);
  }
  host_probe_sink.fetch_xor(acc, std::memory_order_relaxed);
}

inline double host_probe_cpu_s(unsigned threads) {
  static std::vector<std::vector<std::uint64_t>> tables;
  while (tables.size() < threads) tables.emplace_back(kHostProbeWords);
  Stopwatch watch;
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) helpers.emplace_back([t] { host_probe_body(tables[t]); });
  host_probe_body(tables[0]);
  for (auto& helper : helpers) helper.join();
  return watch.lap().cpu_s / threads;
}

/// The untraced measurement loop. Passes run until `seconds` have elapsed
/// (at least three); each `pass(index)` times its own set-up step and pass
/// and returns them, so untimed checks may follow. Before every pass the
/// host probe runs on `threads` threads, the number the workload keeps
/// busy.
///
/// Reports setup_s (median set-up), pass_cpu_s (median pass) and
/// pass_cpu_p75_s (75th percentile pass) in CPU seconds scaled to the
/// reference host speed, and peak_rss_mib. CPU time leaves out the time a
/// shared VM's vCPUs are preempted (steal), which swung wall times up to 2x
/// for minutes at a time. What is left still moves with the host's clock
/// speed and contention, by up to 20% between quiet and busy hours, so each
/// pass's CPU times are multiplied by kHostProbeRefS over the probe's CPU
/// time just before it. The unscaled CPU and wall times go to `# info`
/// lines, and the traced run reports wall times per layer. Peak RSS is read
/// after the first pass, the memory of one pass in a fresh process; later
/// passes only add allocator fragmentation, which varies with thread
/// timing. It excludes the probe's tables.
template <typename Pass>
void measure(double seconds, unsigned threads, Report& report, Pass&& pass) {
  std::vector<double> probe_cpu, setup_cpu, pass_cpu, setup_scaled, pass_scaled, pass_wall;
  const auto start = Clock::now();
  while (pass_cpu.size() < 3 || seconds_since(start) < seconds) {
    const double probe = host_probe_cpu_s(threads);
    const Timing t = pass(pass_cpu.size());
    if (pass_cpu.empty()) {
      const double probe_kib = threads * kHostProbeWords * sizeof(std::uint64_t) / 1024.0;
      report.set("peak_rss_mib",
                 (static_cast<double>(monohids::util::peak_rss_kib()) - probe_kib) / 1024.0);
    }
    probe_cpu.push_back(probe);
    setup_cpu.push_back(t.setup.cpu_s);
    pass_cpu.push_back(t.pass.cpu_s);
    setup_scaled.push_back(t.setup.cpu_s * kHostProbeRefS / probe);
    pass_scaled.push_back(t.pass.cpu_s * kHostProbeRefS / probe);
    pass_wall.push_back(t.pass.wall_s);
  }
  report.set("setup_s", median(setup_scaled));
  report.set("pass_cpu_s", median(pass_scaled));
  report.set("pass_cpu_p75_s", quantile(pass_scaled, 0.75));
  report.note("passes", pass_cpu.size());
  report.note("raw_setup_cpu_s", num(median(setup_cpu)) + " median");
  report.note("raw_pass_cpu_s", num(median(pass_cpu)) + " median, " + num(quantile(pass_cpu, 0.75)) + " p75");
  report.note("pass_wall_s", num(median(pass_wall)) + " median, " + num(quantile(pass_wall, 0.75)) + " p75");
  report.note("host_probe_cpu_ms", num(1e3 * median(probe_cpu)) + " median");
}

/// Per-pass samples of per-layer metrics, reported as their medians.
struct Samples {
  std::map<std::string, std::vector<double>> values;

  void add(const std::string& metric, double value) { values[metric].push_back(value); }
  [[nodiscard]] double med(const std::string& metric) const {
    const auto it = values.find(metric);
    return it == values.end() ? 0.0 : median(it->second);
  }
  void report(Report& report) const {
    for (const auto& [metric, samples] : values) report.set(metric, median(samples));
  }
};

using SpanTotals = std::map<std::string, spans::Totals>;

/// Inclusive or self milliseconds of span `name` in one pass's totals.
[[nodiscard]] inline double span_ms(const SpanTotals& totals, const std::string& name, bool self) {
  const auto it = totals.find(name);
  if (it == totals.end()) return 0.0;
  return self ? it->second.self_ms : it->second.inclusive_ms;
}

/// The traced-run loop. For `seconds` (at least two pairs) it alternates an
/// untraced pass `plain(index)` of the product entry points, which returns
/// its Timing, with a traced replica pass `traced(index)` on the same input,
/// which returns its wall seconds. Tracing is on only around `traced`, whose
/// root span must be named "pass". Each traced pass's span totals go to
/// `reduce`, and the first two passes' spans to `trace_path`. Reports the
/// bench.* summary, with the untraced passes' wall times, and returns those
/// wall times.
///
/// The replicas' root spans hold the microsecond set-up steps (config
/// parse, daemon construction) but not policy_sweep's dataset build, so
/// the tracing overhead compares them with the untraced pass times alone.
template <typename Plain, typename Traced, typename Reduce>
std::vector<double> traced_pairs(double seconds, const std::string& trace_path, Report& report,
                                 Plain&& plain, Traced&& traced, Reduce&& reduce) {
  std::vector<double> plain_s, traced_s;
  std::vector<spans::Span> kept;
  double root_ms = 0.0, root_self_ms = 0.0;
  const auto start = Clock::now();
  for (std::size_t pass = 0; pass < 2 || seconds_since(start) < seconds; ++pass) {
    plain_s.push_back(plain(pass).pass.wall_s);
    spans::enable(true);
    traced_s.push_back(traced(pass));
    spans::enable(false);
    const auto pass_spans = spans::take();
    const SpanTotals totals = spans::reduce(pass_spans);
    root_ms += span_ms(totals, "pass", false);
    root_self_ms += span_ms(totals, "pass", true);
    reduce(totals);
    if (pass < 2) spans::append(kept, pass_spans);
  }
  spans::write_chrome_trace(trace_path, kept);
  report.set("bench.attributed_pct", root_ms > 0.0 ? 100.0 * (root_ms - root_self_ms) / root_ms : 0.0);
  report.set("bench.trace_overhead_pct", 100.0 * (median(traced_s) / median(plain_s) - 1.0));
  report.set("bench.passes", static_cast<double>(plain_s.size() + traced_s.size()));
  report.set("bench.pass_wall_s", median(plain_s));
  report.set("bench.pass_wall_p75_s", quantile(plain_s, 0.75));
  return plain_s;
}

void run_table3_cold(const Options& options, Report& report);
void run_policy_sweep(const Options& options, Report& report);
void run_pcap_replay(const Options& options, Report& report);
void run_live_queue(const Options& options, Report& report);

}  // namespace e2e
