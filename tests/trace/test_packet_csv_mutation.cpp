// Hostile-input suite for read_packet_csv and stream_packet_csv, the
// import path for external packet traces. Valid texts come from
// write_packet_csv over seeded packet sets (every protocol, ports, flags
// and payloads up to their limits, timestamps up to 2^64 - 1); each is then
// mutated: field counts, header names, digits, signs, blanks, non-decimal
// text, the range edges of every numeric field (65535/65536 for ports and
// payloads, 255/256 for flags and address octets, 2^64 - 1/2^64 for
// timestamps), quoted cells and stray quotes, CR/LF endings and blank
// lines, and truncation anywhere (a cut last row above all). The oracle is
// an independent row parser written here. For every mutant both readers
// and the oracle must agree: each reader throws InputError exactly when
// the oracle rejects the text, and otherwise returns exactly the oracle's
// packets. No other exception may escape.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::trace {
namespace {

using net::PacketRecord;

constexpr std::size_t kFields = 8;
const std::array<std::string, kFields> kHeader = {"timestamp_us", "src",   "dst",   "sport",
                                                  "dport",        "proto", "flags", "payload"};

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

/// A non-empty run of decimal digits no larger than `max`, or nullopt.
std::optional<std::uint64_t> unsigned_cell(const std::string& s, std::uint64_t max) {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// A dotted quad of four decimal octets, or nullopt.
std::optional<std::uint32_t> address_cell(const std::string& s) {
  const std::vector<std::string> octets = split(s, '.');
  if (octets.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const std::string& octet : octets) {
    const auto v = unsigned_cell(octet, 255);
    if (!v) return std::nullopt;
    value = (value << 8) | static_cast<std::uint32_t>(*v);
  }
  return value;
}

/// One line's cells: at most one trailing CR dropped, split on commas, a
/// whole quoted cell read as its inside; any other quote is malformed.
std::optional<std::vector<std::string>> cells_of(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> cells = split(line, ',');
  for (std::string& cell : cells) {
    if (cell.find('"') == std::string::npos) continue;
    if (cell.size() < 2 || cell.front() != '"' || cell.back() != '"' ||
        cell.find('"', 1) != cell.size() - 1) {
      return std::nullopt;
    }
    cell = cell.substr(1, cell.size() - 2);
  }
  return cells;
}

/// The independent reading of a packet CSV, or nullopt when the text must
/// be rejected.
std::optional<std::vector<PacketRecord>> oracle_read(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  // The piece after the last '\n' is a row without its newline: a cut row,
  // unless it is blank. A text without any newline has no whole header.
  const std::string tail = lines.back();
  lines.pop_back();
  if (lines.empty()) return std::nullopt;
  if (!tail.empty() && tail != "\r") return std::nullopt;
  const auto header = cells_of(lines[0]);
  if (!header || header->size() != kFields) return std::nullopt;
  for (std::size_t c = 0; c < kFields; ++c) {
    if ((*header)[c] != kHeader[c]) return std::nullopt;
  }
  std::vector<PacketRecord> packets;
  for (std::size_t r = 1; r < lines.size(); ++r) {
    if (lines[r].empty() || lines[r] == "\r") continue;
    const auto row = cells_of(lines[r]);
    if (!row || row->size() != kFields) return std::nullopt;
    const auto ts = unsigned_cell((*row)[0], std::numeric_limits<std::uint64_t>::max());
    const auto src = address_cell((*row)[1]);
    const auto dst = address_cell((*row)[2]);
    const auto sport = unsigned_cell((*row)[3], 65535);
    const auto dport = unsigned_cell((*row)[4], 65535);
    const auto flags = unsigned_cell((*row)[6], 255);
    const auto payload = unsigned_cell((*row)[7], 65535);
    const std::map<std::string, net::Protocol> protocols = {
        {"tcp", net::Protocol::Tcp}, {"udp", net::Protocol::Udp}, {"icmp", net::Protocol::Icmp}};
    const auto proto = protocols.find((*row)[5]);
    if (!ts || !src || !dst || !sport || !dport || !flags || !payload ||
        proto == protocols.end()) {
      return std::nullopt;
    }
    PacketRecord& p = packets.emplace_back();
    p.timestamp = *ts;
    p.tuple.src_ip = net::Ipv4Address(*src);
    p.tuple.dst_ip = net::Ipv4Address(*dst);
    p.tuple.src_port = static_cast<std::uint16_t>(*sport);
    p.tuple.dst_port = static_cast<std::uint16_t>(*dport);
    p.tuple.protocol = proto->second;
    p.tcp_flags = static_cast<net::TcpFlags>(*flags);
    p.payload_bytes = static_cast<std::uint16_t>(*payload);
  }
  return packets;
}

/// A seeded packet set: random fields, with every field's extremes mixed in.
std::vector<PacketRecord> base_packets(util::Xoshiro256& rng, std::size_t count) {
  const std::array<net::Protocol, 3> protocols = {net::Protocol::Tcp, net::Protocol::Udp,
                                                  net::Protocol::Icmp};
  std::vector<PacketRecord> packets(count);
  std::uint64_t ts = rng() % 1000;
  for (PacketRecord& p : packets) {
    const bool extreme = rng() % 6 == 0;
    ts += rng() % 5'000'000;
    p.timestamp = extreme && rng() % 2 == 0 ? std::numeric_limits<std::uint64_t>::max() : ts;
    p.tuple.src_ip = net::Ipv4Address(extreme ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng()));
    p.tuple.dst_ip = net::Ipv4Address(extreme ? 0u : static_cast<std::uint32_t>(rng()));
    p.tuple.src_port = static_cast<std::uint16_t>(extreme ? 65535 : rng() % 65536);
    p.tuple.dst_port = static_cast<std::uint16_t>(extreme ? 0 : rng() % 1024);
    p.tuple.protocol = protocols[rng() % protocols.size()];
    p.tcp_flags = static_cast<net::TcpFlags>(extreme ? 255 : rng() % 32);
    p.payload_bytes = static_cast<std::uint16_t>(extreme ? 65535 : rng() % 1500);
  }
  return packets;
}

class CollectingSink final : public features::PacketSink {
 public:
  void on_batch(std::span<const PacketRecord> batch) override {
    packets.insert(packets.end(), batch.begin(), batch.end());
  }
  std::vector<PacketRecord> packets;
};

class MutationRun {
 public:
  /// Feeds `mutant` to both readers and the oracle; they must agree.
  /// Returns whether read_packet_csv accepted it.
  bool check(const std::string& mutant, const std::string& kind) {
    ++mutants_[kind];
    const std::optional<std::vector<PacketRecord>> expected = oracle_read(mutant);
    const std::optional<std::vector<PacketRecord>> read = run_reader(mutant, kind, false);
    const std::optional<std::vector<PacketRecord>> streamed = run_reader(mutant, kind, true);
    EXPECT_EQ(read.has_value(), streamed.has_value()) << kind << " readers disagree:\n"
                                                      << mutant;
    if (!read) {
      ++rejected_[kind];
      EXPECT_FALSE(expected.has_value()) << kind << " mutant rejected:\n" << mutant;
      return false;
    }
    if (!expected) {
      ADD_FAILURE() << kind << " mutant accepted:\n" << mutant;
      return true;
    }
    EXPECT_TRUE(*read == *expected) << kind << " mutant misread:\n" << mutant;
    if (streamed) {
      EXPECT_TRUE(*streamed == *expected) << kind << " mutant streamed:\n" << mutant;
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
  /// One reader's packets, or nullopt when it threw InputError.
  static std::optional<std::vector<PacketRecord>> run_reader(const std::string& mutant,
                                                             const std::string& kind,
                                                             bool streaming) {
    std::istringstream in(mutant);
    try {
      if (!streaming) return read_packet_csv(in);
      CollectingSink sink;
      const std::uint64_t count = stream_packet_csv(in, sink, 3);
      EXPECT_EQ(count, sink.packets.size()) << kind << " mutant:\n" << mutant;
      return sink.packets;
    } catch (const InputError&) {
      return std::nullopt;
    } catch (const std::exception& e) {
      ADD_FAILURE() << kind << " mutant escaped a non-InputError (" << e.what() << "):\n"
                    << mutant;
      return std::nullopt;
    }
  }

  std::map<std::string, std::size_t> mutants_;
  std::map<std::string, std::size_t> rejected_;
};

std::string join(const std::vector<std::string>& lines, const std::string& ending = "\n") {
  std::string out;
  for (const auto& l : lines) out += l + ending;
  return out;
}

std::string join_cells(const std::vector<std::string>& cells) {
  std::string row;
  for (std::size_t i = 0; i < cells.size(); ++i) row += (i ? "," : "") + cells[i];
  return row;
}

/// Rewrites cell `c` of line `r` (the header is line 0).
std::string with_cell(std::vector<std::string> lines, std::size_t r, std::size_t c,
                      const std::string& cell) {
  auto cells = split(lines[r], ',');
  cells[c] = cell;
  lines[r] = join_cells(cells);
  return join(lines);
}

TEST(PacketCsvMutation, ReadersAgreeWithAnIndependentRowParser) {
  util::Xoshiro256 rng(0xbac5c5f);
  // Range edges per numeric column (timestamp, sport, dport, flags,
  // payload), each just inside and just past the limit, with leading zeros
  // and a value past 2^64.
  const std::map<std::size_t, std::vector<std::string>> edges = {
      {0, {"18446744073709551615", "18446744073709551616", "99999999999999999999", "0",
           "00000000000000000000000123"}},
      {3, {"65535", "65536", "065535", "0", "4294967296"}},
      {4, {"65535", "65536", "99999", "00080", "18446744073709551616"}},
      {6, {"255", "256", "0255", "1000", "0"}},
      {7, {"65535", "65536", "70000", "000", "18446744073709551615"}}};
  const std::vector<std::string> addresses = {
      "255.255.255.255", "256.0.0.1",    "1.2.3.256", "0.0.0.0",  "010.001.000.009",
      "1.2.3",           "1.2.3.4.5",    "1..2.3",    "1.2.3.",   ".1.2.3",
      "1.2.3.4 ",        "-1.2.3.4",     "+1.2.3.4",  "1.2.3.0x4", "4294967296.0.0.1",
      "1.2.3.99999999999999999999"};
  const std::vector<std::string> texts = {"",    " ",   "0x10", "1e3", "nan",  "inf", "1.0",
                                          "1,5", "abc", "TCP",  "Udp", "sctp", "6",   "\"tcp\"",
                                          "tcp ", "\"17\"", "1\r5", "\t"};
  const std::vector<std::string> protocols = {"tcp", "udp", "icmp", "TCP", "ICMP", "", "icmp6",
                                              "\"udp\"", "6"};
  std::size_t total = 0;
  for (int base_index = 0; base_index < 8; ++base_index) {
    const std::size_t count = base_index == 0 ? 1 : 5 + rng() % 40;
    std::ostringstream out;
    write_packet_csv(out, base_packets(rng, count));
    const std::string base = out.str();
    MutationRun run;
    ASSERT_TRUE(run.check(base, "unmutated"));
    const std::vector<std::string> lines = [&] {
      auto l = split(base, '\n');
      l.pop_back();
      return l;
    }();
    const auto any_row = [&] { return 1 + rng() % (lines.size() - 1); };
    const auto numeric_column = [&] {
      constexpr std::array<std::size_t, 5> columns = {0, 3, 4, 6, 7};
      return columns[rng() % columns.size()];
    };

    for (int round = 0; round < 120; ++round) {
      {  // Field count: one field dropped, or one appended or inserted.
        const std::size_t r = rng() % lines.size();
        auto cells = split(lines[r], ',');
        switch (rng() % 3) {
          case 0: cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(rng() % cells.size())); break;
          case 1: cells.push_back("0"); break;
          default: cells.insert(cells.begin() + static_cast<std::ptrdiff_t>(rng() % cells.size()), "7");
        }
        std::vector<std::string> mutated = lines;
        mutated[r] = join_cells(cells);
        EXPECT_FALSE(run.check(join(mutated), "field count"));
      }
      {  // Header: two names swapped, one name changed by a character, or a
         // name quoted (which CSV reads as the name itself).
        auto names = split(lines[0], ',');
        const std::size_t a = rng() % kFields;
        const std::size_t b = (a + 1 + rng() % (kFields - 1)) % kFields;
        const std::uint64_t kind = rng() % 3;
        if (kind == 0) {
          std::swap(names[a], names[b]);
        } else if (kind == 1) {
          names[a][rng() % names[a].size()] ^= 0x20;
        } else {
          names[a] = '"' + names[a] + '"';
        }
        std::vector<std::string> mutated = lines;
        mutated[0] = join_cells(names);
        EXPECT_EQ(run.check(join(mutated), "header"), kind == 2);
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
      {  // Signs before a numeric or address cell.
        const std::string sign = rng() % 2 == 0 ? "-" : "+";
        const std::size_t r = any_row();
        const std::size_t c = rng() % 2 == 0 ? numeric_column() : 1 + rng() % 2;
        EXPECT_FALSE(run.check(with_cell(lines, r, c, sign + split(lines[r], ',')[c]), "sign"));
      }
      {  // Blanks around any cell.
        const std::string blank = rng() % 2 == 0 ? " " : "\t";
        const std::size_t r = any_row();
        const std::size_t c = rng() % kFields;
        const std::string cell = split(lines[r], ',')[c];
        EXPECT_FALSE(run.check(with_cell(lines, r, c, rng() % 2 ? blank + cell : cell + blank),
                               "blank"));
      }
      {  // Range edges of the numeric columns and the addresses.
        const std::size_t c = numeric_column();
        const auto& values = edges.at(c);
        run.check(with_cell(lines, any_row(), c, values[rng() % values.size()]), "range edge");
        run.check(with_cell(lines, any_row(), 1 + rng() % 2, addresses[rng() % addresses.size()]),
                  "address");
      }
      {  // Non-decimal text in any cell, and protocol spellings.
        run.check(with_cell(lines, any_row(), rng() % kFields, texts[rng() % texts.size()]),
                  "text");
        run.check(with_cell(lines, any_row(), 5, protocols[rng() % protocols.size()]),
                  "protocol");
      }
      {  // Quotes: a whole cell quoted reads as the cell; quotes around part
         // of a cell, or a lone quote, are malformed.
        const std::size_t r = any_row();
        const std::size_t c = rng() % kFields;
        const std::string cell = split(lines[r], ',')[c];
        const std::size_t cut = 1 + rng() % cell.size();
        switch (rng() % 3) {
          case 0:
            EXPECT_TRUE(run.check(with_cell(lines, r, c, '"' + cell + '"'), "quoted cell"));
            break;
          case 1:
            run.check(with_cell(lines, r, c, '"' + cell.substr(0, cut) + '"' + cell.substr(cut)),
                      "quoted prefix");
            break;
          default:
            EXPECT_FALSE(run.check(with_cell(lines, r, c, cell.substr(0, cut) + '"' +
                                                              cell.substr(cut)),
                                   "lone quote"));
        }
      }
      {  // Line endings and blank lines.
        switch (rng() % 5) {
          case 0: EXPECT_TRUE(run.check(join(lines, "\r\n"), "CRLF")); break;
          case 1: EXPECT_FALSE(run.check(join(lines, "\r"), "CR")); break;
          case 2: {
            std::string mixed;
            for (const auto& l : lines) mixed += l + (rng() % 2 ? "\r\n" : "\n");
            EXPECT_TRUE(run.check(mixed, "mixed endings"));
            break;
          }
          case 3: {
            // Two CRs before a row's newline: only one is a line ending.
            std::vector<std::string> doubled = lines;
            doubled[rng() % lines.size()] += "\r\r";
            EXPECT_FALSE(run.check(join(doubled), "CRCRLF"));
            break;
          }
          default: {
            std::vector<std::string> blanked = lines;
            blanked.insert(blanked.begin() + static_cast<std::ptrdiff_t>(1 + rng() % lines.size()),
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
    }
    EXPECT_GT(run.rejected("digit"), 0u);
    EXPECT_GT(run.mutants("digit") - run.rejected("digit"), 0u);
    EXPECT_GT(run.rejected("range edge"), 0u);
    EXPECT_GT(run.mutants("range edge") - run.rejected("range edge"), 0u);
    EXPECT_GT(run.rejected("text"), 50u);
    EXPECT_GT(run.rejected("quoted prefix"), 0u);
    total += run.total();
  }
  EXPECT_GT(total, 10000u);
}

TEST(PacketCsvMutation, MisreadsNowRejectedNameTheProblem) {
  const std::string header = "timestamp_us,src,dst,sport,dport,proto,flags,payload\n";
  const std::string row = "17,10.0.0.1,10.0.0.2,1,2,tcp,2,1460";
  const auto reject = [](const std::string& text, const std::string& diagnostic) {
    std::istringstream in(text);
    try {
      (void)read_packet_csv(in);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos) << e.what();
    }
  };
  // A cut last row used to read its shortened payload (14 of 1460).
  reject(header + row + "\n" + row.substr(0, row.size() - 2), "ends inside a row");
  // A header with source and destination swapped used to read each
  // address into the other's field.
  reject("timestamp_us,dst,src,sport,dport,proto,flags,payload\n" + row + "\n",
         "header column 1");
  // Two CRs before the newline used to be dropped as one line ending.
  reject(header + row + "\r\r\n", "payload");
  // Text after a closing quote used to join the quoted part ("1"7 as 17).
  reject(header + "\"1\"7" + row.substr(2) + "\n", "closing quote");
}

}  // namespace
}  // namespace monohids::trace
