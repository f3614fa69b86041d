// CSV emission and parsing.
//
// Experiment binaries write their data series as CSV (to stdout or a file)
// so figures can be re-plotted externally; tests round-trip through the
// parser. Quoting follows RFC 4180: fields containing comma, quote, CR or LF
// are quoted, embedded quotes are doubled.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace monohids::util {

/// Escapes one field per RFC 4180.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Writes rows of string fields to a stream.
class CsvWriter {
 public:
  /// The stream must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with enough digits to round-trip.
  static std::string format(double value);
  static std::string format(std::int64_t value);
  static std::string format(std::uint64_t value);

 private:
  std::ostream* out_;
};

/// Parses one CSV line into fields (RFC 4180 quoting). Multi-line quoted
/// fields are not supported — the experiment outputs never produce them.
/// A quote inside an unquoted field, text after a closing quote and an
/// unterminated quote throw InputError.
/// One trailing carriage return (CRLF line ending) is dropped; a '\r'
/// anywhere else is kept as data.
[[nodiscard]] std::vector<std::string> csv_parse_line(std::string_view line);

}  // namespace monohids::util
