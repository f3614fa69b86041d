// Shared scaffolding for the per-figure bench binaries: uniform CLI flags
// (population size, seed, bin width, feature), scenario construction, a
// header that records the exact parameters each run regenerated its
// table/figure with, and an opt-in JSON timing emitter (--json <path>) so
// per-phase wall times can be tracked as a perf trajectory across PRs.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/experiments.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"

namespace monohids::bench {

/// Registers the flags every experiment binary shares.
inline util::CliFlags standard_flags(std::string summary) {
  util::CliFlags flags(std::move(summary));
  flags.add_int("users", 350, "population size (paper: 350)");
  flags.add_int("seed", 42, "master seed for the synthetic enterprise");
  flags.add_int("weeks", 5, "trace horizon in weeks (paper: 5)");
  flags.add_int("bin-minutes", 15, "feature bin width in minutes (paper: 15 or 5)");
  flags.add_string("feature", "num-TCP-connections", "feature to analyze");
  flags.add_bool("verbose", false, "enable info logging");
  flags.add_string("json", "",
                   "write per-phase wall times + config echo as JSON to this path");
  flags.add_string("metrics-json", "",
                   "write a process metrics snapshot (obs registry + recent "
                   "spans) as JSON to this path on exit");
  return flags;
}

/// Writes the global obs registry snapshot to the --metrics-json path;
/// no-op when the flag is unset. Works in MONOHIDS_OBS=OFF builds too (the
/// document is then empty with "enabled": false), so scripted sweeps can
/// pass the flag unconditionally.
inline void write_metrics_if_requested(const util::CliFlags& flags) {
  const std::string& path = flags.get_string("metrics-json");
  if (path.empty()) return;
  obs::write_global_json(path);
  std::cout << "# metrics written to " << path << '\n';
}

/// Wall-clock phase recorder behind the --json flag. Instrumented binaries
/// record named phases (milliseconds) plus a config echo and call
/// write_if_requested() before exiting; without --json it is a no-op
/// beyond the cheap clock reads.
class PhaseTimings {
 public:
  void config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void config(std::string key, std::int64_t value) {
    config(std::move(key), std::to_string(value));
  }

  void record(std::string phase, double millis) {
    phases_.emplace_back(std::move(phase), millis);
  }

  /// Records a phase under the separate setup section: work a binary must
  /// do before measuring (scenario synthesis, warm-up) but whose cost is
  /// not the quantity the bench tracks. Setup phases are emitted in their
  /// own JSON array and excluded from total_ms, so the committed perf
  /// trajectory follows the measured suites, not the fixture build.
  void record_setup(std::string phase, double millis) {
    setup_.emplace_back(std::move(phase), millis);
  }

  /// Times fn() with a steady clock and records it under `phase`.
  template <typename Fn>
  auto time(std::string phase, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record(std::move(phase), elapsed_ms(start));
    } else {
      auto result = fn();
      record(std::move(phase), elapsed_ms(start));
      return result;
    }
  }

  /// time() into the setup section.
  template <typename Fn>
  auto time_setup(std::string phase, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record_setup(std::move(phase), elapsed_ms(start));
    } else {
      auto result = fn();
      record_setup(std::move(phase), elapsed_ms(start));
      return result;
    }
  }

  /// Measured time only (setup excluded).
  [[nodiscard]] double total_ms() const {
    double total = 0.0;
    for (const auto& [name, ms] : phases_) total += ms;
    return total;
  }

  [[nodiscard]] double setup_ms() const {
    double total = 0.0;
    for (const auto& [name, ms] : setup_) total += ms;
    return total;
  }

  [[nodiscard]] std::string to_json(std::string_view binary) const {
    std::string out = "{\n  \"binary\": \"" + escape(binary) + "\",\n  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      out += (i == 0 ? "" : ", ");
      out += '"' + escape(config_[i].first) + "\": \"" + escape(config_[i].second) + '"';
    }
    out += "},\n";
    if (!setup_.empty()) {
      out += "  \"setup\": [\n";
      for (std::size_t i = 0; i < setup_.size(); ++i) {
        out += "    {\"name\": \"" + escape(setup_[i].first) +
               "\", \"ms\": " + format_ms(setup_[i].second) + '}';
        out += (i + 1 < setup_.size() ? ",\n" : "\n");
      }
      out += "  ],\n  \"setup_ms\": " + format_ms(setup_ms()) + ",\n";
    }
    out += "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      out += "    {\"name\": \"" + escape(phases_[i].first) +
             "\", \"ms\": " + format_ms(phases_[i].second) + '}';
      out += (i + 1 < phases_.size() ? ",\n" : "\n");
    }
    out += "  ],\n  \"total_ms\": " + format_ms(total_ms()) +
           ",\n  \"peak_rss_kib\": " + std::to_string(util::peak_rss_kib()) + "\n}\n";
    return out;
  }

  /// Writes the JSON document to the --json path; no-op when unset.
  void write_if_requested(const util::CliFlags& flags, std::string_view binary) const {
    const std::string& path = flags.get_string("json");
    if (path.empty()) return;
    std::ofstream out(path);
    MONOHIDS_ENSURE(out.good(), "cannot open --json output path");
    out << to_json(binary);
    MONOHIDS_ENSURE(out.good(), "failed writing --json output");
    std::cout << "# timings written to " << path << '\n';
  }

 private:
  static double elapsed_ms(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
        .count();
  }

  static std::string format_ms(double ms) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
    return buffer;
  }

  static std::string escape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> setup_;
  std::vector<std::pair<std::string, double>> phases_;
};

/// Copies the standard scenario flags into a timing record's config echo.
inline void echo_standard_config(PhaseTimings& timings, const util::CliFlags& flags) {
  timings.config("users", flags.get_int("users"));
  timings.config("seed", flags.get_int("seed"));
  timings.config("weeks", flags.get_int("weeks"));
  timings.config("bin_minutes", flags.get_int("bin-minutes"));
  timings.config("feature", flags.get_string("feature"));
}

/// Builds the scenario a parsed flag set describes, echoing the parameters.
inline sim::Scenario scenario_from_flags(const util::CliFlags& flags) {
  if (flags.get_bool("verbose")) util::set_log_level(util::LogLevel::Info);
  sim::ScenarioConfig config;
  config.set_users(static_cast<std::uint32_t>(flags.get_int("users")));
  config.set_seed(static_cast<std::uint64_t>(flags.get_int("seed")));
  config.set_weeks(static_cast<std::uint32_t>(flags.get_int("weeks")));
  config.generator.grid =
      util::BinGrid::minutes(static_cast<std::uint64_t>(flags.get_int("bin-minutes")));

  std::cout << "# users=" << flags.get_int("users") << " seed=" << flags.get_int("seed")
            << " weeks=" << flags.get_int("weeks")
            << " bin-minutes=" << flags.get_int("bin-minutes") << '\n';
  return sim::build_scenario(config);
}

/// scenario_from_flags with the build recorded as a "scenario_build" phase.
inline sim::Scenario scenario_from_flags(const util::CliFlags& flags,
                                         PhaseTimings& timings) {
  echo_standard_config(timings, flags);
  return timings.time("scenario_build", [&] { return scenario_from_flags(flags); });
}

/// scenario_from_flags for benches where the scenario is a fixture, not the
/// measurement: the build lands in the JSON "setup" section and stays out
/// of total_ms.
inline sim::Scenario scenario_setup_from_flags(const util::CliFlags& flags,
                                               PhaseTimings& timings) {
  echo_standard_config(timings, flags);
  return timings.time_setup("scenario_build", [&] { return scenario_from_flags(flags); });
}

inline features::FeatureKind feature_from_flags(const util::CliFlags& flags) {
  return features::parse_feature(flags.get_string("feature"));
}

/// Prints the standard experiment banner.
inline void banner(std::string_view figure, std::string_view claim) {
  std::cout << "=== " << figure << " ===\n# paper claim: " << claim << "\n";
}

}  // namespace monohids::bench
