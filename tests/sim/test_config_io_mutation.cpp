// Hostile-input suite for parse_scenario_config. Valid texts come from
// serialize_scenario_config over the defaults and seeded random configs;
// each is then mutated: key typos, duplicated keys, dropped '=', signs,
// blanks, digits past the integer range, scenario_version values, CR/LF
// endings, NUL bytes and stray encodings (a UTF-8 byte-order mark, Latin-1
// bytes). The contract for every mutant: parse throws InputError, or it
// returns a config whose serialization parses back to the same text. No
// other exception may escape. Mutants whose fate is known also pin it: a
// typo'd key, a duplicated key, a dropped '=', a NUL, a lone CR or an
// out-of-range integer must throw; blanks around tokens and CRLF endings
// must parse to the original config.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/config_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::sim {
namespace {

enum class Fate { Either, Throws, SameConfig };

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines, const std::string& ending = "\n") {
  std::string text;
  for (const auto& line : lines) text += line + ending;
  return text;
}

/// Indices of the `key = value` lines (the serializer writes no others
/// besides `#` comments).
std::vector<std::size_t> setting_lines(const std::vector<std::string>& lines) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i].front() != '#') out.push_back(i);
  }
  return out;
}

std::string key_of(const std::string& line) { return line.substr(0, line.find(" = ")); }
std::string value_of(const std::string& line) { return line.substr(line.find(" = ") + 3); }

const std::set<std::string>& integer_keys() {
  static const std::set<std::string> keys{"users", "seed", "weeks", "bin_minutes",
                                          "scenario_version"};
  return keys;
}

ScenarioConfig random_config(util::Xoshiro256& rng) {
  ScenarioConfig config;
  config.set_users(1 + static_cast<std::uint32_t>(rng() % 10'000'000));
  config.set_seed(rng());
  config.set_weeks(1 + static_cast<std::uint32_t>(rng() % 520));
  auto& p = config.population;
  p.heavy_fraction = rng.uniform01();
  const auto signed_value = [&] { return (rng.uniform01() - 0.5) * std::exp2(rng() % 40); };
  p.intensity_log_mu = signed_value();
  p.intensity_log_sigma = signed_value();
  p.heavy_boost_log_mu = signed_value();
  p.heavy_boost_log_sigma = signed_value();
  p.extreme_fraction_of_heavy = rng.uniform01();
  p.extreme_boost_log_mu = signed_value();
  p.extreme_boost_log_sigma = signed_value();
  p.app_mix_log_sigma = signed_value();
  p.dns_mix_log_sigma = signed_value();
  p.weekly_drift_log_sigma = signed_value();
  p.weekly_trend = signed_value();
  p.subnet_base = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  config.generator.grid = util::BinGrid::minutes(1 + rng() % (24 * 60));
  config.generator.episode_log_mu = signed_value();
  config.generator.distinct_pool_factor = signed_value();
  config.fidelity = rng() % 2 == 0 ? TraceFidelity::Bins : TraceFidelity::Packets;
  return config;
}

class MutationRun {
 public:
  /// Parses `mutant` and checks the contract and `fate` against `original`
  /// (the serialized text the mutant came from).
  void check(const std::string& mutant, Fate fate, const std::string& original,
             const std::string& kind) {
    ++mutants_[kind];
    std::optional<ScenarioConfig> parsed;
    try {
      parsed = parse_scenario_config(mutant);
    } catch (const InputError&) {
      ++rejected_[kind];
      EXPECT_NE(fate, Fate::SameConfig) << kind << " mutant rejected:\n" << mutant;
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " mutant escaped a non-InputError (" << e.what() << "):\n"
                    << mutant;
      return;
    } catch (...) {
      ADD_FAILURE() << kind << " mutant escaped a non-standard exception:\n" << mutant;
      return;
    }
    EXPECT_NE(fate, Fate::Throws) << kind << " mutant accepted:\n" << mutant;
    const std::string once = serialize_scenario_config(*parsed);
    std::string twice;
    try {
      twice = serialize_scenario_config(parse_scenario_config(once));
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " mutant's re-serialization does not parse (" << e.what()
                    << "):\n" << once;
      return;
    }
    EXPECT_EQ(twice, once) << kind << " mutant does not round-trip:\n" << mutant;
    if (fate == Fate::SameConfig) {
      EXPECT_EQ(once, original) << kind << " mutant changed the config:\n" << mutant;
    }
  }

  [[nodiscard]] const std::map<std::string, std::size_t>& mutants() const { return mutants_; }
  [[nodiscard]] std::size_t rejected(const std::string& kind) const {
    const auto it = rejected_.find(kind);
    return it == rejected_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::size_t> mutants_;
  std::map<std::string, std::size_t> rejected_;
};

TEST(ConfigIoMutation, EveryMutantThrowsInputErrorOrRoundTrips) {
  util::Xoshiro256 rng(0xc0f19);
  std::vector<std::string> bases{serialize_scenario_config(ScenarioConfig{})};
  for (int i = 0; i < 11; ++i) bases.push_back(serialize_scenario_config(random_config(rng)));

  static const std::string kKeyChars = "abcdefghijklmnopqrstuvwxyz0123456789_";
  static const std::vector<std::string> kVersions{
      "0", "1", "2", "3", "-2", "+2", "2.0", "02", "2e0", "", "v2", "4294967296", " 2\t"};
  static const std::vector<std::string> kPastRange{
      "4294967296", "18446744073709551616", "99999999999999999999999999", "1e400",
      "-1e400"};
  MutationRun run;
  std::set<std::string> known_keys;
  for (const auto& line : split_lines(bases[0])) {
    if (!line.empty() && line.front() != '#') known_keys.insert(key_of(line));
  }

  for (const std::string& base : bases) {
    const std::vector<std::string> lines = split_lines(base);
    const std::vector<std::size_t> settings = setting_lines(lines);
    for (int m = 0; m < 60; ++m) {
      const std::size_t at = settings[rng() % settings.size()];
      const std::string& line = lines[at];
      const std::string key = key_of(line);
      const std::string value = value_of(line);
      std::vector<std::string> mutated = lines;

      {  // Key typo: one character of the key replaced, inserted or deleted.
        std::string typo = key;
        const std::size_t pos = rng() % typo.size();
        const char c = kKeyChars[rng() % kKeyChars.size()];
        switch (rng() % 3) {
          case 0: typo[pos] = c; break;
          case 1: typo.insert(typo.begin() + static_cast<std::ptrdiff_t>(pos), c); break;
          default: typo.erase(pos, 1); break;
        }
        mutated[at] = typo + " = " + value;
        const Fate fate = typo == key ? Fate::SameConfig
                          : known_keys.count(typo) != 0 ? Fate::Either
                                                        : Fate::Throws;
        run.check(join_lines(mutated), fate, base, "key typo");
        mutated[at] = line;
      }
      {  // Duplicated key: the same line again, or the key with another base's value.
        const std::string& other = bases[rng() % bases.size()];
        std::string donor = line;
        for (const auto& l : split_lines(other)) {
          if (!l.empty() && l.front() != '#' && key_of(l) == key) donor = l;
        }
        std::vector<std::string> dup = lines;
        dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(settings[rng() % settings.size()]),
                   donor);
        run.check(join_lines(dup), Fate::Throws, base, "duplicated key");
      }
      {  // Dropped '='.
        std::string dropped = line;
        dropped.erase(dropped.find('='), 1);
        mutated[at] = dropped;
        run.check(join_lines(mutated), Fate::Throws, base, "dropped =");
        mutated[at] = line;
      }
      {  // Sign flipped onto or off the value; integers never take a sign.
        std::string signed_value = value;
        if (!signed_value.empty() && (signed_value[0] == '-' || signed_value[0] == '+')) {
          signed_value.erase(0, 1);
        } else {
          signed_value.insert(signed_value.begin(), rng() % 2 == 0 ? '-' : '+');
        }
        mutated[at] = key + " = " + signed_value;
        run.check(join_lines(mutated),
                  integer_keys().count(key) != 0 ? Fate::Throws : Fate::Either, base, "sign");
        mutated[at] = line;
      }
      {  // Blanks: around a token keep the config; inside one reject it.
        const std::string blank = rng() % 2 == 0 ? " " : "\t";
        const bool in_key = rng() % 2 == 0;
        const std::string& token = in_key ? key : value;
        Fate fate = Fate::SameConfig;
        std::string spaced;
        switch (rng() % 5) {
          case 0: spaced = blank + line; break;
          case 1: spaced = key + blank + " = " + value; break;
          case 2: spaced = key + " =" + blank + value; break;
          case 3: spaced = line + blank; break;
          default:
            if (token.size() < 2) {
              spaced = line + blank;
              break;
            }
            const std::size_t pos = 1 + rng() % (token.size() - 1);
            const std::string broken = token.substr(0, pos) + blank + token.substr(pos);
            spaced = in_key ? broken + " = " + value : key + " = " + broken;
            fate = Fate::Throws;
        }
        mutated[at] = spaced;
        run.check(join_lines(mutated), fate, base, "blanks");
        mutated[at] = line;
      }
      if (integer_keys().count(key) != 0 || rng() % 4 == 0) {  // Digits past the range.
        const std::string& huge = kPastRange[rng() % kPastRange.size()];
        mutated[at] = key + " = " + huge;
        // Integer keys are unsigned: seed takes 64 bits, the others 32 or a
        // smaller range. 1e400 is no double.
        const bool past_key_range =
            integer_keys().count(key) != 0 && (key != "seed" || huge != "4294967296");
        const bool must_throw = past_key_range || huge.find('e') != std::string::npos;
        run.check(join_lines(mutated), must_throw ? Fate::Throws : Fate::Either, base,
                  "past range");
        mutated[at] = line;
      }
      {  // scenario_version values: only 2, blanks aside, is built.
        const std::string& version = kVersions[rng() % kVersions.size()];
        // The serialized text names its version once: the mutant moves
        // that line to a random settings position with the new value (a
        // second version line would be a repeated key).
        const std::size_t pos = settings[rng() % settings.size()];
        std::vector<std::string> versioned;
        std::size_t originals = 0;
        for (std::size_t i = 0; i < lines.size(); ++i) {
          if (i == pos) versioned.push_back("scenario_version = " + version);
          if (key_of(lines[i]) == "scenario_version") {
            ++originals;
          } else {
            versioned.push_back(lines[i]);
          }
        }
        ASSERT_EQ(originals, 1u);
        // Leading zeros read as decimal, so "02" is 2 as well.
        const bool two = version == "2" || version == " 2\t" || version == "02";
        run.check(join_lines(versioned), two ? Fate::SameConfig : Fate::Throws, base,
                  "scenario_version");
      }
      {  // Line endings: CRLF and mixed CRLF/LF read the same; a lone CR,
         // which would fold the file into its first comment line, throws.
        switch (rng() % 3) {
          case 0: run.check(join_lines(lines, "\r\n"), Fate::SameConfig, base, "CRLF"); break;
          case 1: run.check(join_lines(lines, "\r"), Fate::Throws, base, "CR"); break;
          default: {
            std::string mixed;
            for (const auto& l : lines) mixed += l + (rng() % 2 == 0 ? "\r\n" : "\n");
            run.check(mixed, Fate::SameConfig, base, "mixed endings");
          }
        }
      }
      {  // NUL byte anywhere in a setting line.
        std::string nul = line;
        nul.insert(nul.begin() + static_cast<std::ptrdiff_t>(rng() % (nul.size() + 1)), '\0');
        mutated[at] = nul;
        run.check(join_lines(mutated), Fate::Throws, base, "NUL");
        mutated[at] = line;
      }
      {  // Encodings: a byte-order mark or a Latin-1 byte before a key.
        const std::string prefix = rng() % 2 == 0 ? "\xEF\xBB\xBF" : "\xE9";
        mutated[at] = prefix + line;
        run.check(join_lines(mutated), Fate::Throws, base, "encoding");
        mutated[at] = line;
        run.check(prefix + base, Fate::Either, base, "encoding");
      }
    }
  }

  std::size_t total = 0;
  for (const auto& [kind, count] : run.mutants()) total += count;
  EXPECT_GT(total, 6000u);
  EXPECT_GT(run.mutants().at("key typo"), 500u);
  EXPECT_GT(run.rejected("dropped ="), 500u);
  EXPECT_GT(run.rejected("NUL"), 500u);
  EXPECT_GT(run.rejected("past range"), 100u);
  EXPECT_GT(run.rejected("duplicated key"), 500u);
  EXPECT_GT(run.mutants().at("CRLF"), 100u);
}

}  // namespace
}  // namespace monohids::sim
