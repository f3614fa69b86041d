#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace monohids::util {
namespace {

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("3.14"), "3.14");
}

TEST(CsvEscape, CommaTriggersQuoting) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuotesAreDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlinesAreQuoted) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"a", "b,c", "d"});
  w.write_row({"1", "2", "3"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n1,2,3\n");
}

TEST(CsvWriter, FormatsDoublesRoundTrip) {
  const double value = 0.1234567890123;
  const std::string text = CsvWriter::format(value);
  EXPECT_NEAR(std::stod(text), value, 1e-12);
}

TEST(CsvParse, SimpleLine) {
  const auto fields = csv_parse_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvParse, EmptyFields) {
  const auto fields = csv_parse_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvParse, QuotedFieldWithComma) {
  const auto fields = csv_parse_line("\"a,b\",c");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
}

TEST(CsvParse, EscapedQuote) {
  const auto fields = csv_parse_line("\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvParse, ToleratesTrailingCarriageReturn) {
  const auto fields = csv_parse_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(CsvParse, OnlyTheLineEndingCarriageReturnIsDropped) {
  // A '\r' inside an unquoted field is data, not a line ending, so the
  // cell "1\r5" stays three characters (and no numeric reader takes it
  // as 15); only the final CR of a CRLF line goes.
  const auto fields = csv_parse_line("1\r5,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "1\r5");
  EXPECT_EQ(fields[1], "b");
  const auto doubled = csv_parse_line("a\r\r");
  ASSERT_EQ(doubled.size(), 1u);
  EXPECT_EQ(doubled[0], "a\r");
}

TEST(CsvParse, QuotedFieldKeepsEmbeddedCarriageReturn) {
  const auto fields = csv_parse_line("\"x\ry\",z\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "x\ry");
  EXPECT_EQ(fields[1], "z");
}

TEST(CsvParse, UnterminatedQuoteIsAnError) {
  EXPECT_THROW(csv_parse_line("\"oops"), InputError);
}

TEST(CsvParse, MidFieldQuoteIsAnError) {
  EXPECT_THROW(csv_parse_line("ab\"c\""), InputError);
}

TEST(CsvParse, TextAfterClosingQuoteIsAnError) {
  // "1"7 used to read as the cell 17.
  EXPECT_THROW(csv_parse_line("\"1\"7,2"), InputError);
  EXPECT_THROW(csv_parse_line("a,\"b\" "), InputError);
  EXPECT_EQ(csv_parse_line("\"1\",\"\"\r"), (std::vector<std::string>{"1", ""}));
}

TEST(CsvRoundTrip, EscapeThenParse) {
  const std::vector<std::string> original{"plain", "with,comma", "with \"quote\"", ""};
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(original);
  std::string line = os.str();
  line.pop_back();  // trailing newline
  EXPECT_EQ(csv_parse_line(line), original);
}

}  // namespace
}  // namespace monohids::util
