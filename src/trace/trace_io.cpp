#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace monohids::trace {

namespace {

constexpr std::array<char, 8> kMagic = {'M', 'H', 'T', 'R', 'A', 'C', 'E', '\0'};

void put_u32(std::ostream& out, std::uint32_t v) {
  std::array<char, 4> buf;
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf.data(), buf.size());
}

void put_u64(std::ostream& out, std::uint64_t v) {
  std::array<char, 8> buf;
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf.data(), buf.size());
}

std::uint32_t get_u32(std::istream& in) {
  std::array<char, 4> buf;
  in.read(buf.data(), buf.size());
  MONOHIDS_ENSURE(in.good(), "truncated trace file");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(buf[i]);
  return v;
}

std::uint64_t get_u64(std::istream& in) {
  std::array<char, 8> buf;
  in.read(buf.data(), buf.size());
  MONOHIDS_ENSURE(in.good(), "truncated trace file");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(buf[i]);
  return v;
}

/// Validates the magic/version header and returns the record count.
std::uint64_t read_trace_header(std::istream& in) {
  std::array<char, 8> magic;
  in.read(magic.data(), magic.size());
  MONOHIDS_ENSURE(in.good() && magic == kMagic, "not a monohids trace file");
  const std::uint32_t version = get_u32(in);
  MONOHIDS_ENSURE(version == kTraceFormatVersion,
                  "unsupported trace version " + std::to_string(version));
  return get_u64(in);
}

net::PacketRecord get_record(std::istream& in) {
  net::PacketRecord p;
  p.timestamp = get_u64(in);
  p.tuple.src_ip = net::Ipv4Address(get_u32(in));
  p.tuple.dst_ip = net::Ipv4Address(get_u32(in));
  const std::uint32_t ports = get_u32(in);
  p.tuple.src_port = static_cast<std::uint16_t>(ports >> 16);
  p.tuple.dst_port = static_cast<std::uint16_t>(ports & 0xFFFF);
  const std::uint32_t tail = get_u32(in);
  const std::uint32_t protocol = (tail >> 24) & 0xFF;
  MONOHIDS_ENSURE(protocol == static_cast<std::uint8_t>(net::Protocol::Tcp) ||
                      protocol == static_cast<std::uint8_t>(net::Protocol::Udp) ||
                      protocol == static_cast<std::uint8_t>(net::Protocol::Icmp),
                  "unknown protocol " + std::to_string(protocol) + " in trace file");
  p.tuple.protocol = static_cast<net::Protocol>(protocol);
  p.tcp_flags = static_cast<net::TcpFlags>((tail >> 16) & 0xFF);
  p.payload_bytes = static_cast<std::uint16_t>(tail & 0xFFFF);
  return p;
}

}  // namespace

void write_packet_trace(std::ostream& out, const std::vector<net::PacketRecord>& packets) {
  out.write(kMagic.data(), kMagic.size());
  put_u32(out, kTraceFormatVersion);
  put_u64(out, packets.size());
  for (const net::PacketRecord& p : packets) {
    put_u64(out, p.timestamp);
    put_u32(out, p.tuple.src_ip.value());
    put_u32(out, p.tuple.dst_ip.value());
    put_u32(out, (std::uint32_t{p.tuple.src_port} << 16) | p.tuple.dst_port);
    put_u32(out, (std::uint32_t{static_cast<std::uint8_t>(p.tuple.protocol)} << 24) |
                     (std::uint32_t{static_cast<std::uint8_t>(p.tcp_flags)} << 16) |
                     p.payload_bytes);
  }
}

namespace {

/// The shared decode loop behind read_packet_trace and stream_packet_trace:
/// validates the header, hands its (untrusted) record count to `on_count`,
/// then decodes every record into `on_packet`.
template <typename OnCount, typename OnPacket>
void parse_packet_trace(std::istream& in, OnCount&& on_count, OnPacket&& on_packet) {
  const std::uint64_t count = read_trace_header(in);
  on_count(count);
  for (std::uint64_t i = 0; i < count; ++i) on_packet(get_record(in));
}

}  // namespace

std::vector<net::PacketRecord> read_packet_trace(std::istream& in) {
  std::vector<net::PacketRecord> packets;
  parse_packet_trace(
      in,
      [&](std::uint64_t count) {
        // The header's count is untrusted input: reserve only a bounded
        // prefix so a corrupt count fails with "truncated trace file" at the
        // first missing record instead of a gigantic up-front allocation.
        constexpr std::uint64_t kMaxTrustedReserve = 1u << 20;
        packets.reserve(static_cast<std::size_t>(std::min(count, kMaxTrustedReserve)));
      },
      [&](const net::PacketRecord& p) { packets.push_back(p); });
  return packets;
}

std::uint64_t stream_packet_trace(std::istream& in, features::PacketSink& sink,
                                  std::size_t max_batch) {
  features::BatchingAdapter batches(sink, max_batch);
  parse_packet_trace(
      in, [](std::uint64_t) {}, [&](const net::PacketRecord& p) { batches.push(p); });
  return batches.finish();
}

void write_packet_csv(std::ostream& out, const std::vector<net::PacketRecord>& packets) {
  util::CsvWriter csv(out);
  csv.write_row({"timestamp_us", "src", "dst", "sport", "dport", "proto", "flags", "payload"});
  for (const net::PacketRecord& p : packets) {
    csv.write_row({util::CsvWriter::format(p.timestamp), p.tuple.src_ip.to_string(),
                   p.tuple.dst_ip.to_string(), std::to_string(p.tuple.src_port),
                   std::to_string(p.tuple.dst_port), net::to_string(p.tuple.protocol),
                   std::to_string(static_cast<int>(p.tcp_flags)),
                   std::to_string(p.payload_bytes)});
  }
}

namespace {

net::Protocol parse_protocol(const std::string& text) {
  if (text == "tcp") return net::Protocol::Tcp;
  if (text == "udp") return net::Protocol::Udp;
  if (text == "icmp") return net::Protocol::Icmp;
  throw InputError("unknown protocol in packet CSV: " + text);
}

/// An unsigned decimal field no larger than `max`. Digits only: no sign,
/// no blanks (std::stoull alone would read "-1" as 2^64 - 1 and skip
/// leading blanks), and a value past `max` is an error, never a wrap.
std::uint64_t parse_u64_field(const std::string& text, const char* what,
                              std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  MONOHIDS_ENSURE(!text.empty(), std::string("empty ") + what + " in packet CSV");
  MONOHIDS_ENSURE(std::all_of(text.begin(), text.end(),
                              [](char c) { return c >= '0' && c <= '9'; }),
                  std::string("malformed ") + what + " in packet CSV: " + text);
  std::uint64_t value = 0;
  try {
    value = std::stoull(text);
  } catch (const std::exception&) {
    throw InputError(std::string(what) + " out of range in packet CSV: " + text);
  }
  MONOHIDS_ENSURE(value <= max, std::string(what) + " out of range in packet CSV: " + text);
  return value;
}

bool is_packet_csv_header(const std::vector<std::string>& row) {
  return row.size() == 8 && row[0] == "timestamp_us";
}

/// stod with the full diagnostic contract: garbage, trailing junk and empty
/// cells all surface as InputError naming the offending cell, never as a
/// bare std::invalid_argument (or a silently half-parsed value).
double parse_double_field(const std::string& text, std::size_t row, std::size_t column) {
  const auto fail = [&]() -> InputError {
    return InputError("malformed value in feature CSV at row " + std::to_string(row) +
                      ", column " + std::to_string(column) + ": \"" + text + '"');
  };
  if (text.empty()) throw fail();
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw fail();
  }
  if (pos != text.size()) throw fail();
  return value;
}

net::PacketRecord parse_packet_row(const std::vector<std::string>& row) {
  MONOHIDS_ENSURE(row.size() == 8, "packet CSV row has the wrong field count");
  net::PacketRecord p;
  p.timestamp = parse_u64_field(row[0], "timestamp");
  p.tuple.src_ip = net::Ipv4Address::parse(row[1]);
  p.tuple.dst_ip = net::Ipv4Address::parse(row[2]);
  p.tuple.src_port = static_cast<std::uint16_t>(parse_u64_field(row[3], "src port", 0xFFFF));
  p.tuple.dst_port = static_cast<std::uint16_t>(parse_u64_field(row[4], "dst port", 0xFFFF));
  p.tuple.protocol = parse_protocol(row[5]);
  p.tcp_flags = static_cast<net::TcpFlags>(parse_u64_field(row[6], "TCP flags", 0xFF));
  p.payload_bytes = static_cast<std::uint16_t>(parse_u64_field(row[7], "payload", 0xFFFF));
  return p;
}

}  // namespace

namespace {

/// The shared row loop behind read_packet_csv and stream_packet_csv: checks
/// the header line, then parses every non-blank row into `on_packet`.
template <typename OnPacket>
void parse_packet_csv(std::istream& in, OnPacket&& on_packet) {
  std::string line;
  MONOHIDS_ENSURE(static_cast<bool>(std::getline(in, line)), "packet CSV is empty");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  MONOHIDS_ENSURE(is_packet_csv_header(util::csv_parse_line(line)),
                  "packet CSV header does not match the expected format");
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // trailing newline / blank line
    on_packet(parse_packet_row(util::csv_parse_line(line)));
  }
  // getline must have stopped at end-of-file; stopping on a stream error
  // (badbit mid-file) would otherwise silently truncate the trace.
  MONOHIDS_ENSURE(in.eof(), "I/O error while reading packet CSV");
}

}  // namespace

std::vector<net::PacketRecord> read_packet_csv(std::istream& in) {
  std::vector<net::PacketRecord> packets;
  parse_packet_csv(in, [&](const net::PacketRecord& p) { packets.push_back(p); });
  return packets;
}

std::uint64_t stream_packet_csv(std::istream& in, features::PacketSink& sink,
                                std::size_t max_batch) {
  features::BatchingAdapter batches(sink, max_batch);
  parse_packet_csv(in, [&](const net::PacketRecord& p) { batches.push(p); });
  return batches.finish();
}

void write_feature_csv(std::ostream& out, const features::FeatureMatrix& matrix) {
  util::CsvWriter csv(out);
  std::vector<std::string> header{"bin_start_us"};
  for (features::FeatureKind f : features::kAllFeatures) {
    header.emplace_back(features::name_of(f));
  }
  csv.write_row(header);

  const auto& first = matrix.series.front();
  for (std::size_t b = 0; b < first.bin_count(); ++b) {
    std::vector<std::string> row{util::CsvWriter::format(first.grid().bin_start(b))};
    for (features::FeatureKind f : features::kAllFeatures) {
      row.push_back(util::CsvWriter::format(matrix.of(f).at(b)));
    }
    csv.write_row(row);
  }
}

features::FeatureMatrix read_feature_csv(std::istream& in, util::BinGrid grid) {
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto rows = util::csv_parse(text);
  MONOHIDS_ENSURE(rows.size() >= 2, "feature CSV has no data rows");
  MONOHIDS_ENSURE(rows[0].size() == 1 + features::kFeatureCount,
                  "feature CSV has the wrong column count");

  const std::size_t bins = rows.size() - 1;
  const util::Duration horizon = bins * grid.width();
  features::FeatureMatrix matrix;
  for (auto& s : matrix.series) s = features::BinnedSeries(grid, horizon);

  for (std::size_t r = 1; r < rows.size(); ++r) {
    MONOHIDS_ENSURE(rows[r].size() == 1 + features::kFeatureCount,
                    "feature CSV row has the wrong column count");
    for (std::size_t c = 0; c < features::kFeatureCount; ++c) {
      matrix.series[c].set(r - 1, parse_double_field(rows[r][c + 1], r, c + 1));
    }
  }
  return matrix;
}

}  // namespace monohids::trace
