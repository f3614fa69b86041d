#include "util/csv.hpp"

#include <charconv>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace monohids::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quote = field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) *out_ << ',';
    first = false;
    *out_ << csv_escape(f);
  }
  *out_ << '\n';
}

std::string CsvWriter::format(double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

std::string CsvWriter::format(std::int64_t value) { return std::to_string(value); }
std::string CsvWriter::format(std::uint64_t value) { return std::to_string(value); }

std::vector<std::string> csv_parse_line(std::string_view line) {
  // A CRLF file leaves one carriage return at the end of each line; any
  // other '\r' is field data (and makes a numeric cell malformed).
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          // A closing quote ends its field: "1"7 is not the cell 17.
          MONOHIDS_ENSURE(i + 1 == line.size() || line[i + 1] == ',',
                          "text after the closing quote of a CSV field");
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      MONOHIDS_ENSURE(current.empty(), "quote in the middle of an unquoted CSV field");
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
    ++i;
  }
  MONOHIDS_ENSURE(!in_quotes, "unterminated quoted CSV field");
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace monohids::util
