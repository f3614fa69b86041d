// Tiny command-line flag parser used by the bench / example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Every
// binary registers its flags with defaults and help text so `--help` prints
// a uniform usage page; unknown flags are an error (catches typos in
// experiment sweeps).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace monohids::util {

/// Declarative flag set. Register flags, then parse(argc, argv), then read
/// typed values. Parsing throws InputError on malformed input.
class CliFlags {
 public:
  /// `program_summary` is shown at the top of --help output.
  explicit CliFlags(std::string program_summary);

  CliFlags& add_int(std::string name, std::int64_t default_value, std::string help);
  CliFlags& add_double(std::string name, double default_value, std::string help);
  CliFlags& add_string(std::string name, std::string default_value, std::string help);
  CliFlags& add_bool(std::string name, bool default_value, std::string help);

  /// Parses argv. Returns false if --help was requested (usage already
  /// printed to stdout); callers should then exit 0.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] const std::string& get_string(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;

  /// Renders the usage page.
  [[nodiscard]] std::string usage(std::string_view program_name) const;

 private:
  enum class Kind { Int, Double, String, Bool };
  struct Flag {
    Kind kind = Kind::Int;
    std::string help;
    std::string default_text;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  const Flag& find(std::string_view name, Kind kind) const;
  void set_from_text(Flag& flag, std::string_view name, std::string_view text);

  std::string summary_;
  std::map<std::string, Flag, std::less<>> flags_;
  std::vector<std::string> order_;
};

}  // namespace monohids::util
