// Hostile-input suite for read_feature_csv. Valid texts come from
// write_feature_csv over seeded matrices (counts, fractions, values near
// 2^53 and past 10^15, on 5- and 15-minute grids); each is then mutated:
// field counts, header names (swapped or changed), digits, signs, blanks,
// nan/inf and other non-decimal text, values past 2^53 and past the double
// range, CR/LF endings and blank lines, truncation anywhere (a cut last row
// above all), and dropped, repeated or swapped rows. The oracle is an
// independent row parser written here. For every mutant the reader and the
// oracle must agree: read_feature_csv throws InputError exactly when the
// oracle rejects the text, and otherwise returns exactly the oracle's bins,
// bit for bit. No other exception may escape.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "features/feature.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::trace {
namespace {

constexpr std::size_t kColumns = 1 + features::kFeatureCount;
using Bins = std::vector<std::array<double, features::kFeatureCount>>;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts(1);
  for (char c : text) {
    if (c == sep) {
      parts.emplace_back();
    } else {
      parts.back().push_back(c);
    }
  }
  return parts;
}

/// A value cell as write_feature_csv prints one: digits with an optional
/// fraction (or a bare fraction), then an optional exponent. No sign,
/// blank, hex digit or nan/inf text.
bool is_decimal(const std::string& s) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i - from;
  };
  std::size_t mantissa = digits();
  if (i < s.size() && s[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  return i == s.size();
}

/// The independent reading of a feature CSV on `grid`, or nullopt when the
/// text must be rejected.
std::optional<Bins> oracle_read(const std::string& text, util::BinGrid grid) {
  std::vector<std::string> lines = split(text, '\n');
  // The piece after the last '\n' is a row without its newline: a cut row,
  // unless it is blank.
  const std::string tail = lines.back();
  lines.pop_back();
  if (!tail.empty() && tail != "\r") return std::nullopt;
  std::vector<std::vector<std::string>> rows;
  for (std::string line : lines) {
    if (line.empty() || line == "\r") continue;
    if (line.back() == '\r') line.pop_back();
    auto& row = rows.emplace_back(split(line, ','));
    // CSV quoting: a whole quoted cell is its inside; any other quote is
    // malformed.
    for (std::string& cell : row) {
      if (cell.find('"') == std::string::npos) continue;
      if (cell.size() < 2 || cell.front() != '"' || cell.back() != '"' ||
          cell.find('"', 1) != cell.size() - 1) {
        return std::nullopt;
      }
      cell = cell.substr(1, cell.size() - 2);
    }
  }
  if (rows.size() < 2 || rows[0].size() != kColumns) return std::nullopt;
  // The header names the columns as the writer does, in its order.
  if (rows[0][0] != "bin_start_us") return std::nullopt;
  for (std::size_t c = 0; c < features::kFeatureCount; ++c) {
    if (rows[0][c + 1] != features::name_of(features::kAllFeatures[c])) return std::nullopt;
  }
  Bins bins;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != kColumns) return std::nullopt;
    if (row[0] != std::to_string(grid.bin_start(r - 1))) return std::nullopt;
    auto& bin = bins.emplace_back();
    for (std::size_t c = 0; c < features::kFeatureCount; ++c) {
      const std::string& cell = row[c + 1];
      if (!is_decimal(cell)) return std::nullopt;
      errno = 0;
      bin[c] = std::strtod(cell.c_str(), nullptr);
      if (errno == ERANGE) return std::nullopt;
    }
  }
  return bins;
}

/// A seeded matrix: mostly counts, some fractions, a few huge values.
std::string base_text(util::Xoshiro256& rng, util::BinGrid grid, std::size_t bins) {
  features::FeatureMatrix m;
  for (auto& s : m.series) s = features::BinnedSeries(grid, bins * grid.width());
  for (auto& s : m.series) {
    for (std::size_t b = 0; b < bins; ++b) {
      const std::uint64_t kind = rng() % 20;
      double v = static_cast<double>(rng() % 200);
      if (kind == 0) v = 0.5 + static_cast<double>(rng() % 9);
      if (kind == 1) v = rng.uniform01() * 1000.0;
      if (kind == 2) v = 9007199254740992.0;
      if (kind == 3) v = 3.5e15;
      if (kind < 8 && kind > 3) v = 0.0;
      s.set(b, v);
    }
  }
  std::ostringstream out;
  write_feature_csv(out, m);
  return out.str();
}

class MutationRun {
 public:
  explicit MutationRun(util::BinGrid grid) : grid_(grid) {}

  /// Feeds `mutant` to the reader and the oracle; they must agree. Returns
  /// whether the reader accepted it.
  bool check(const std::string& mutant, const std::string& kind) {
    ++mutants_[kind];
    const std::optional<Bins> expected = oracle_read(mutant, grid_);
    std::optional<features::FeatureMatrix> got;
    try {
      std::istringstream in(mutant);
      got = read_feature_csv(in, grid_);
    } catch (const InputError&) {
      ++rejected_[kind];
      EXPECT_FALSE(expected.has_value()) << kind << " mutant rejected:\n" << mutant;
      return false;
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " mutant escaped a non-InputError (" << e.what() << "):\n"
                    << mutant;
      return false;
    }
    if (!expected.has_value()) {
      ADD_FAILURE() << kind << " mutant accepted:\n" << mutant;
      return true;
    }
    for (std::size_t c = 0; c < features::kFeatureCount; ++c) {
      const auto& series = got->series[c];
      EXPECT_EQ(series.bin_count(), expected->size()) << kind << " mutant:\n" << mutant;
      if (series.bin_count() != expected->size()) return true;
      for (std::size_t b = 0; b < series.bin_count(); ++b) {
        if (std::bit_cast<std::uint64_t>(series.at(b)) !=
            std::bit_cast<std::uint64_t>((*expected)[b][c])) {
          ADD_FAILURE() << kind << " mutant misread at bin " << b << ", column " << c + 1
                        << ": " << series.at(b) << " vs " << (*expected)[b][c] << "\n"
                        << mutant;
          return true;
        }
      }
    }
    return true;
  }

  [[nodiscard]] std::size_t mutants(const std::string& kind) const {
    const auto it = mutants_.find(kind);
    return it == mutants_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t rejected(const std::string& kind) const {
    const auto it = rejected_.find(kind);
    return it == rejected_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t total() const {
    std::size_t n = 0;
    for (const auto& [kind, count] : mutants_) n += count;
    return n;
  }

 private:
  util::BinGrid grid_;
  std::map<std::string, std::size_t> mutants_;
  std::map<std::string, std::size_t> rejected_;
};

std::string join(const std::vector<std::string>& lines, const std::string& ending = "\n") {
  std::string out;
  for (const auto& l : lines) out += l + ending;
  return out;
}

/// Rewrites cell `c` of data row `r` (1-based rows, header at 0).
std::string with_cell(std::vector<std::string> lines, std::size_t r, std::size_t c,
                      const std::string& cell) {
  auto fields = split(lines[r], ',');
  fields[c] = cell;
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) row += (i ? "," : "") + fields[i];
  lines[r] = row;
  return join(lines);
}

TEST(FeatureCsvMutation, ReaderAgreesWithAnIndependentRowParser) {
  util::Xoshiro256 rng(0xfea7c5f);
  const std::vector<std::string> texts = {"nan", "NaN", "inf", "-inf", "infinity", "1e999",
                                          "1e-400", "0x1p3", "0x10", "", " ", "-0", "+1",
                                          "1e", "1e+", ".", "1..2", "1.5.", ".5", "5.",
                                          "1,5", "\"7\"", "7 ", "1e5e5"};
  const std::vector<std::string> huge = {"9007199254740992", "9007199254740993",
                                         "18446744073709551615", "18446744073709551616",
                                         "123456789012345678901234567890", "1e308",
                                         "1.7976931348623157e308", "2e308"};
  std::size_t total = 0;
  for (int base_index = 0; base_index < 8; ++base_index) {
    const util::BinGrid grid = util::BinGrid::minutes(base_index % 2 == 0 ? 15 : 5);
    const std::size_t bins = 20 + rng() % 60;
    const std::string base = base_text(rng, grid, bins);
    MutationRun run(grid);
    util::Xoshiro256 header_rng(0x4eade7 + static_cast<std::uint64_t>(base_index));
    ASSERT_TRUE(run.check(base, "unmutated"));
    const std::vector<std::string> lines = [&] {
      auto l = split(base, '\n');
      l.pop_back();
      return l;
    }();
    const auto any_row = [&] { return 1 + rng() % (lines.size() - 1); };
    const auto any_cell = [&] { return 1 + rng() % features::kFeatureCount; };

    for (int round = 0; round < 150; ++round) {
      {  // Field count: one field dropped, or one appended or inserted.
        const std::size_t r = rng() % lines.size();
        std::vector<std::string> mutated = lines;
        auto fields = split(mutated[r], ',');
        switch (rng() % 3) {
          case 0: fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(rng() % fields.size())); break;
          case 1: fields.push_back("0"); break;
          default: fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(rng() % fields.size()), "7");
        }
        std::string row;
        for (std::size_t i = 0; i < fields.size(); ++i) row += (i ? "," : "") + fields[i];
        mutated[r] = row;
        EXPECT_FALSE(run.check(join(mutated), "field count"));
      }
      {  // Digits: one replaced, deleted or inserted anywhere in the text.
        std::string mutated = base;
        std::size_t at = rng() % mutated.size();
        while (mutated[at] < '0' || mutated[at] > '9') at = rng() % mutated.size();
        const char digit = static_cast<char>('0' + rng() % 10);
        switch (rng() % 3) {
          case 0: mutated[at] = digit; break;
          case 1: mutated.erase(at, 1); break;
          default: mutated.insert(at, 1, digit);
        }
        run.check(mutated, "digit");
      }
      {  // Signs: before a cell, or the exponent's sign flipped.
        const std::string sign = rng() % 2 == 0 ? "-" : "+";
        const std::size_t r = any_row();
        const std::size_t c = rng() % kColumns;
        EXPECT_FALSE(run.check(with_cell(lines, r, c, sign + split(lines[r], ',')[c]), "sign"));
        std::string mutated = base;
        const std::size_t e = mutated.find("e+", rng() % mutated.size());
        if (e != std::string::npos) {
          mutated[e + 1] = '-';
          EXPECT_TRUE(run.check(mutated, "exponent sign"));
        }
      }
      {  // Blanks around a cell.
        const std::string blank = rng() % 2 == 0 ? " " : "\t";
        const std::size_t r = any_row();
        const std::size_t c = rng() % kColumns;
        const std::string cell = split(lines[r], ',')[c];
        EXPECT_FALSE(run.check(with_cell(lines, r, c, rng() % 2 ? blank + cell : cell + blank),
                               "blank"));
      }
      {  // Non-decimal text in a value cell.
        run.check(with_cell(lines, any_row(), any_cell(), texts[rng() % texts.size()]), "text");
      }
      {  // Values past 2^53 and at or past the double range.
        run.check(with_cell(lines, any_row(), any_cell(), huge[rng() % huge.size()]), "huge");
      }
      {  // Line endings and blank lines.
        switch (rng() % 4) {
          case 0: EXPECT_TRUE(run.check(join(lines, "\r\n"), "CRLF")); break;
          case 1: EXPECT_FALSE(run.check(join(lines, "\r"), "CR")); break;
          case 2: {
            std::string mixed;
            for (const auto& l : lines) mixed += l + (rng() % 2 ? "\r\n" : "\n");
            EXPECT_TRUE(run.check(mixed, "mixed endings"));
            break;
          }
          default: {
            std::vector<std::string> blanked = lines;
            blanked.insert(blanked.begin() + static_cast<std::ptrdiff_t>(rng() % lines.size()),
                           rng() % 2 ? "" : "\r");
            EXPECT_TRUE(run.check(join(blanked), "blank line"));
          }
        }
      }
      {  // Truncation: inside the last row, or anywhere.
        const std::size_t last_row = base.rfind('\n', base.size() - 2) + 1;
        const std::size_t in_last = last_row + 1 + rng() % (base.size() - last_row - 1);
        EXPECT_FALSE(run.check(base.substr(0, in_last), "cut last row"));
        run.check(base.substr(0, rng() % base.size()), "truncated");
      }
      {  // Header: two names swapped, one name changed by a character, or a
         // name quoted (which CSV reads as the name itself). Drawn from
         // their own stream, so the other mutants stay as they were.
        std::vector<std::string> mutated = lines;
        auto names = split(lines[0], ',');
        const std::size_t a = header_rng() % kColumns;
        const std::size_t b = (a + 1 + header_rng() % (kColumns - 1)) % kColumns;
        const std::uint64_t kind = header_rng() % 3;
        if (kind == 0) {
          std::swap(names[a], names[b]);
        } else if (kind == 1) {
          names[a][header_rng() % names[a].size()] ^= 0x20;
        } else {
          names[a] = '"' + names[a] + '"';
        }
        std::string header;
        for (std::size_t i = 0; i < names.size(); ++i) header += (i ? "," : "") + names[i];
        mutated[0] = header;
        EXPECT_EQ(run.check(join(mutated), "header"), kind == 2);
      }
      {  // Rows dropped, repeated or swapped.
        std::vector<std::string> mutated = lines;
        const std::size_t r = any_row();
        switch (rng() % 3) {
          case 0: mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(r)); break;
          case 1: mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(r), lines[r]); break;
          default:
            if (r + 1 < mutated.size()) std::swap(mutated[r], mutated[r + 1]);
            else std::swap(mutated[r], mutated[r - 1]);
        }
        // Dropping the only data row, or the last one, is still a valid
        // (shorter) file; any other edit misplaces a bin.
        run.check(join(mutated), "rows");
      }
    }
    EXPECT_GT(run.rejected("digit"), 0u);
    EXPECT_GT(run.mutants("digit") - run.rejected("digit"), 0u);
    EXPECT_GT(run.rejected("text"), 100u);
    EXPECT_GT(run.rejected("rows"), 50u);
    total += run.total();
  }
  EXPECT_GT(total, 10000u);
}

TEST(FeatureCsvMutation, MisreadsNowRejectedNameTheProblem) {
  const util::BinGrid grid = util::BinGrid::minutes(15);
  std::string header = "bin_start_us";
  for (features::FeatureKind f : features::kAllFeatures) {
    header += ',';
    header += features::name_of(f);
  }
  header += "\n";
  const auto reject = [&](const std::string& text, const std::string& diagnostic) {
    std::istringstream in(text);
    try {
      (void)read_feature_csv(in, grid);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos) << e.what();
    }
  };
  // A cut last row used to read its shortened cell ("12" of "123").
  reject(header + "0,1,2,3,4,5,6\n900000000,1,2,3,4,5,12", "ends inside a row");
  // A dropped middle row used to shift every later bin.
  reject(header + "0,1,2,3,4,5,6\n1800000000,1,2,3,4,5,6\n", "not at bin 1");
  // nan/inf, signs and blanks used to read as values.
  reject(header + "0,1,2,nan,4,5,6\n", "column 3");
  reject(header + "0,1,2,inf,4,5,6\n", "column 3");
  reject(header + "0,1,2,-3,4,5,6\n", "column 3");
  reject(header + "0,1,2, 3,4,5,6\n", "column 3");
  reject(header + "0,1,2,0x3,4,5,6\n", "column 3");
}

}  // namespace
}  // namespace monohids::trace
