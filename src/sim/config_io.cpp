#include "sim/config_io.hpp"

#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "util/error.hpp"

namespace monohids::sim {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses the whole of `text` as a T with from_chars: a double, or an
/// integer key (which rejects fractions, signs on unsigned keys and
/// out-of-range values instead of truncating them).
template <typename T>
T parse_number(std::string_view key, std::string_view text) {
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  MONOHIDS_ENSURE(ec == std::errc{} && ptr == text.data() + text.size(),
                  "malformed value for '" + std::string(key) + "': " + std::string(text));
  return value;
}

}  // namespace

std::string serialize_scenario_config(const ScenarioConfig& config) {
  std::ostringstream os;
  // Every double round-trips bit for bit.
  os.precision(std::numeric_limits<double>::max_digits10);
  const auto& p = config.population;
  const auto& g = config.generator;
  os << "# monohids scenario configuration\n"
     << "# population\n"
     << "users = " << p.user_count << '\n'
     << "seed = " << p.seed << '\n'
     << "weeks = " << p.weeks << '\n'
     << "heavy_fraction = " << p.heavy_fraction << '\n'
     << "intensity_log_mu = " << p.intensity_log_mu << '\n'
     << "intensity_log_sigma = " << p.intensity_log_sigma << '\n'
     << "heavy_boost_log_mu = " << p.heavy_boost_log_mu << '\n'
     << "heavy_boost_log_sigma = " << p.heavy_boost_log_sigma << '\n'
     << "extreme_fraction_of_heavy = " << p.extreme_fraction_of_heavy << '\n'
     << "extreme_boost_log_mu = " << p.extreme_boost_log_mu << '\n'
     << "extreme_boost_log_sigma = " << p.extreme_boost_log_sigma << '\n'
     << "app_mix_log_sigma = " << p.app_mix_log_sigma << '\n'
     << "dns_mix_log_sigma = " << p.dns_mix_log_sigma << '\n'
     << "weekly_drift_log_sigma = " << p.weekly_drift_log_sigma << '\n'
     << "weekly_trend = " << p.weekly_trend << '\n'
     << "subnet_base = " << p.subnet_base.to_string() << '\n'
     << "# generator\n"
     << "bin_minutes = " << g.grid.width() / util::kMicrosPerMinute << '\n'
     << "episode_log_mu = " << g.episode_log_mu << '\n'
     << "distinct_pool_factor = " << g.distinct_pool_factor << '\n'
     << "scenario_version = 2\n"
     << "fidelity = " << (config.fidelity == TraceFidelity::Packets ? "packets" : "bins")
     << '\n';
  return os.str();
}

ScenarioConfig parse_scenario_config(std::string_view text) {
  ScenarioConfig config;
  auto& p = config.population;
  auto& g = config.generator;

  // One setter per key; string-valued keys handle their own parsing.
  const std::map<std::string_view, std::function<void(std::string_view, std::string_view)>>
      setters{
          {"users",
           [&](auto k, auto v) {
             const auto n = parse_number<std::uint32_t>(k, v);
             MONOHIDS_ENSURE(n >= 1 && n <= 10'000'000, "users out of range");
             p.user_count = n;
           }},
          {"seed",
           [&](auto k, auto v) { p.seed = parse_number<std::uint64_t>(k, v); }},
          {"weeks",
           [&](auto k, auto v) {
             const auto n = parse_number<std::uint32_t>(k, v);
             MONOHIDS_ENSURE(n >= 1 && n <= 520, "weeks out of range");
             p.weeks = n;
             g.weeks = p.weeks;
           }},
          {"heavy_fraction",
           [&](auto k, auto v) {
             p.heavy_fraction = parse_number<double>(k, v);
             MONOHIDS_ENSURE(p.heavy_fraction >= 0 && p.heavy_fraction <= 1,
                             "heavy_fraction out of range");
           }},
          {"intensity_log_mu",
           [&](auto k, auto v) { p.intensity_log_mu = parse_number<double>(k, v); }},
          {"intensity_log_sigma",
           [&](auto k, auto v) { p.intensity_log_sigma = parse_number<double>(k, v); }},
          {"heavy_boost_log_mu",
           [&](auto k, auto v) { p.heavy_boost_log_mu = parse_number<double>(k, v); }},
          {"heavy_boost_log_sigma",
           [&](auto k, auto v) { p.heavy_boost_log_sigma = parse_number<double>(k, v); }},
          {"extreme_fraction_of_heavy",
           [&](auto k, auto v) { p.extreme_fraction_of_heavy = parse_number<double>(k, v); }},
          {"extreme_boost_log_mu",
           [&](auto k, auto v) { p.extreme_boost_log_mu = parse_number<double>(k, v); }},
          {"extreme_boost_log_sigma",
           [&](auto k, auto v) { p.extreme_boost_log_sigma = parse_number<double>(k, v); }},
          {"app_mix_log_sigma",
           [&](auto k, auto v) { p.app_mix_log_sigma = parse_number<double>(k, v); }},
          {"dns_mix_log_sigma",
           [&](auto k, auto v) { p.dns_mix_log_sigma = parse_number<double>(k, v); }},
          {"weekly_drift_log_sigma",
           [&](auto k, auto v) { p.weekly_drift_log_sigma = parse_number<double>(k, v); }},
          {"weekly_trend",
           [&](auto k, auto v) { p.weekly_trend = parse_number<double>(k, v); }},
          {"subnet_base",
           [&](auto, auto v) { p.subnet_base = net::Ipv4Address::parse(std::string(v)); }},
          {"bin_minutes",
           [&](auto k, auto v) {
             const auto n = parse_number<std::uint64_t>(k, v);
             MONOHIDS_ENSURE(n >= 1 && n <= 24 * 60, "bin_minutes out of range");
             g.grid = util::BinGrid::minutes(n);
           }},
          {"episode_log_mu",
           [&](auto k, auto v) { g.episode_log_mu = parse_number<double>(k, v); }},
          {"distinct_pool_factor",
           [&](auto k, auto v) { g.distinct_pool_factor = parse_number<double>(k, v); }},
          {"scenario_version",
           [&](auto k, auto v) {
             // The key names the draw contract the file was written for;
             // only the counter-mode contract (2) is built.
             const auto n = parse_number<std::uint32_t>(k, v);
             MONOHIDS_ENSURE(n != 1,
                             "scenario_version = 1: the v1 serial-stream contract was "
                             "removed; commit c31a951 is the last build that renders it");
             MONOHIDS_ENSURE(n == 2, "scenario_version must be 2");
           }},
          {"fidelity",
           [&](auto, auto v) {
             if (v == "bins") {
               config.fidelity = TraceFidelity::Bins;
             } else if (v == "packets") {
               config.fidelity = TraceFidelity::Packets;
             } else {
               throw InputError("unknown fidelity: " + std::string(v));
             }
           }},
      };

  std::set<std::string_view> seen;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    // A CRLF ending drops its CR. Any other CR is an error: with lone-CR
    // line endings the whole file would read as its first comment line.
    if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
    MONOHIDS_ENSURE(raw.find('\r') == std::string_view::npos,
                    "carriage return inside a config line: " + std::string(raw));
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    const auto eq = line.find('=');
    MONOHIDS_ENSURE(eq != std::string_view::npos,
                    "config line is not 'key = value': " + std::string(line));
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    const auto it = setters.find(key);
    MONOHIDS_ENSURE(it != setters.end(), "unknown config key: " + std::string(key));
    // A second line for a key would silently override the first, so an
    // archived config with a stray appended line would replay a scenario
    // other than the one its first line names.
    MONOHIDS_ENSURE(seen.insert(it->first).second, "repeated config key: " + std::string(key));
    it->second(key, value);
  }
  return config;
}

}  // namespace monohids::sim
